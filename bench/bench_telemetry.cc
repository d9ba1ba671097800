// Copyright 2026 The streambid Authors
// The telemetry layer's acceptance bench: instrumentation must be
// observable without being perturbative.
//
// Experiments (every CHECK runs in both modes):
//  1. Overhead bound: the same deterministic gated 4-shard workload runs
//     with telemetry fully wired (metrics registry + enabled tracer
//     across gate -> cluster -> center) and with the no-op sink (null
//     registry/tracer). Trials interleave and each config keeps its
//     best (minimum) wall time — the robust estimator under scheduler
//     noise. CHECKs the full-instrumentation admit throughput within
//     3% of the no-op sink (10% in --smoke, where periods are so short
//     that timer jitter dominates).
//  2. Replay identity: per-period ClusterPeriodReports are byte-
//     identical with telemetry on and off, and the tracer's
//     IdentitySequence is byte-identical across executor pools 1/2/8 —
//     telemetry never feeds back, and span identity is logical time,
//     not wall time.
//  3. Exposition: prints the span census per phase and a registry
//     excerpt, and drops a Perfetto-loadable Chrome trace next to the
//     JSON artifact.
//
// The executor's allocation audit lives in bench_firehose.
//
// Emits BENCH_telemetry.json (throughputs, overhead fraction, span and
// series counts) — the perf-trajectory artifact CI uploads per PR.
//
// Usage: bench_telemetry [--smoke]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/check.h"
#include "common/timer.h"
#include "gate/stream_ingress.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

using namespace streambid;

Status RegisterQuotes(stream::Engine& engine) {
  return engine.RegisterSource(stream::MakeStockQuoteSource(
      "quotes", {"IBM", "AAPL", "MSFT", "GOOG"}, /*rate=*/100.0, 5));
}

stream::QuerySubmission MakeSubmission(int period, int tenant) {
  stream::QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                           stream::Value(50.0 + tenant));
  stream::QuerySubmission sub;
  sub.query_id = period * 1000 + tenant;
  sub.user = static_cast<auction::UserId>(tenant);
  sub.bid = 5.0 + (tenant * 7 + period * 3) % 11;
  sub.plan = b.Build(sel);
  return sub;
}

int TenantsInPeriod(int period) { return 6 + period % 5; }

/// One full gated run. When `registry`/`tracer` are null the stack runs
/// with the no-op sink; otherwise every layer publishes into them.
struct RunOutcome {
  std::vector<cluster::ClusterPeriodReport> reports;
  double elapsed_seconds = 0.0;
  int64_t submissions = 0;
};

RunOutcome RunGated(int executor_threads, int periods,
                    telemetry::MetricsRegistry* registry,
                    telemetry::PeriodTracer* tracer) {
  cluster::ClusterOptions options;
  options.num_shards = 4;
  options.total_capacity = 10.0;
  options.routing = cluster::RoutingPolicy::kHashUser;
  options.mechanism = "cat";
  options.period_length = 10.0;
  options.seed = 71;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 4;
  options.executor_threads = executor_threads;
  options.metrics = registry;
  options.tracer = tracer;
  cluster::ClusterCenter center(options, RegisterQuotes);

  gate::IngressOptions ingress_options;
  ingress_options.tenant_classes = 2;
  ingress_options.tickets_per_class = 32;  // Never exhausted here.
  ingress_options.metrics = registry;
  ingress_options.tracer = tracer;
  gate::StreamIngress ingress(&center, ingress_options);

  RunOutcome outcome;
  Timer timer;
  for (int period = 0; period < periods; ++period) {
    for (int t = 1; t <= TenantsInPeriod(period); ++t) {
      STREAMBID_CHECK(ingress.Offer(MakeSubmission(period, t)).ok());
      ++outcome.submissions;
    }
    const auto report = ingress.ClosePeriod();
    STREAMBID_CHECK(report.ok());
    STREAMBID_CHECK_EQ(report->gate.shed, 0);
    STREAMBID_CHECK_EQ(report->gate.dropped, 0);
    outcome.reports.push_back(report->report);
  }
  outcome.elapsed_seconds = timer.ElapsedSeconds();
  return outcome;
}

void CheckReportsIdentical(
    const std::vector<cluster::ClusterPeriodReport>& a,
    const std::vector<cluster::ClusterPeriodReport>& b) {
  STREAMBID_CHECK_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    STREAMBID_CHECK_EQ(a[p].period, b[p].period);
    STREAMBID_CHECK_EQ(a[p].submissions, b[p].submissions);
    STREAMBID_CHECK_EQ(a[p].admitted, b[p].admitted);
    STREAMBID_CHECK_EQ(a[p].revenue, b[p].revenue);
    STREAMBID_CHECK_EQ(a[p].total_payoff, b[p].total_payoff);
    STREAMBID_CHECK_EQ(a[p].auction_utilization,
                       b[p].auction_utilization);
    STREAMBID_CHECK_EQ(a[p].measured_utilization,
                       b[p].measured_utilization);
    STREAMBID_CHECK_EQ(a[p].provisioned_capacity,
                       b[p].provisioned_capacity);
    STREAMBID_CHECK_EQ(a[p].energy_cost, b[p].energy_cost);
    STREAMBID_CHECK_EQ(a[p].shard_reports.size(),
                       b[p].shard_reports.size());
    for (size_t s = 0; s < a[p].shard_reports.size(); ++s) {
      STREAMBID_CHECK_EQ(a[p].shard_reports[s].revenue,
                         b[p].shard_reports[s].revenue);
      STREAMBID_CHECK_EQ(a[p].shard_reports[s].admitted,
                         b[p].shard_reports[s].admitted);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int periods = smoke ? 10 : 40;
  const int trials = smoke ? 3 : 5;
  // Short smoke periods put the wall time near timer resolution, so
  // the bound loosens there; the Release run enforces the real 3%.
  const double bound = smoke ? 1.10 : 1.03;
  std::printf("telemetry overhead + replay identity: gated 4-shard "
              "cluster, %d periods, best of %d trials%s\n",
              periods, trials, smoke ? " (smoke)" : "");

  // -- Experiment 1: overhead bound (interleaved best-of-N). -----------
  double best_off = 1e300;
  double best_full = 1e300;
  int64_t submissions = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const RunOutcome off = RunGated(4, periods, nullptr, nullptr);
    telemetry::MetricsRegistry registry;
    telemetry::PeriodTracer tracer;
    const RunOutcome full = RunGated(4, periods, &registry, &tracer);
    best_off = std::min(best_off, off.elapsed_seconds);
    best_full = std::min(best_full, full.elapsed_seconds);
    submissions = off.submissions;
  }
  const double throughput_off = submissions / best_off;
  const double throughput_full = submissions / best_full;
  const double overhead = best_full / best_off - 1.0;
  std::printf("# admit throughput: no-op sink %.0f subs/s, full "
              "instrumentation %.0f subs/s (overhead %+.2f%%)\n",
              throughput_off, throughput_full, 100.0 * overhead);
  STREAMBID_CHECK(best_full <= best_off * bound);

  // -- Experiment 2: replay identity. ----------------------------------
  const RunOutcome plain = RunGated(4, periods, nullptr, nullptr);
  telemetry::MetricsRegistry registry;
  telemetry::PeriodTracer tracer;
  const RunOutcome traced = RunGated(4, periods, &registry, &tracer);
  CheckReportsIdentical(plain.reports, traced.reports);
  std::printf("# reports byte-identical with telemetry on vs off\n");

  std::string identity;
  for (const int threads : {1, 2, 8}) {
    telemetry::PeriodTracer pool_tracer;
    const RunOutcome run = RunGated(threads, periods, nullptr, &pool_tracer);
    CheckReportsIdentical(plain.reports, run.reports);
    const std::string sequence = pool_tracer.IdentitySequence();
    if (identity.empty()) {
      identity = sequence;
    } else {
      STREAMBID_CHECK(identity == sequence);
    }
  }
  std::printf("# trace identity sequences byte-identical at executor "
              "pools 1/2/8\n");

  // -- Experiment 3: exposition. ---------------------------------------
  const auto snapshot = registry.Snapshot();
  const int64_t series =
      static_cast<int64_t>(snapshot.counters.size() +
                           snapshot.gauges.size() +
                           snapshot.histograms.size());
  std::printf("# registry: %lld series (%zu counters, %zu gauges, "
              "%zu histograms), tracer: %lld spans\n",
      static_cast<long long>(series), snapshot.counters.size(),
      snapshot.gauges.size(), snapshot.histograms.size(),
      static_cast<long long>(tracer.span_count()));
  // Span census: every period has 1 gate drain + 4 prepare + 4
  // complete + 1 rebalance; admit spans only where a shard had pending
  // submissions (hash routing leaves some shards idle some periods).
  int64_t drains = 0, prepares = 0, admits = 0, completes = 0,
          rebalances = 0, autoscales = 0;
  for (const telemetry::TraceSpan& span : tracer.SortedSpans()) {
    switch (span.phase) {
      case telemetry::Phase::kGateDrain: ++drains; break;
      case telemetry::Phase::kPrepare: ++prepares; break;
      case telemetry::Phase::kAutoscale: ++autoscales; break;
      case telemetry::Phase::kAdmit: ++admits; break;
      case telemetry::Phase::kComplete: ++completes; break;
      case telemetry::Phase::kRebalance: ++rebalances; break;
    }
  }
  std::printf("# span census: %lld drain, %lld prepare, %lld admit, "
              "%lld complete, %lld rebalance\n",
              static_cast<long long>(drains),
              static_cast<long long>(prepares),
              static_cast<long long>(admits),
              static_cast<long long>(completes),
              static_cast<long long>(rebalances));
  STREAMBID_CHECK_EQ(drains, static_cast<int64_t>(periods));
  STREAMBID_CHECK_EQ(prepares, static_cast<int64_t>(periods) * 4);
  STREAMBID_CHECK_EQ(completes, static_cast<int64_t>(periods) * 4);
  STREAMBID_CHECK_EQ(rebalances, static_cast<int64_t>(periods));
  STREAMBID_CHECK_EQ(autoscales, 0);  // No autoscaler in this config.
  STREAMBID_CHECK_GT(admits, 0);
  STREAMBID_CHECK_LE(admits, static_cast<int64_t>(periods) * 4);
  STREAMBID_CHECK(tracer.WriteChromeTrace("telemetry_trace.json").ok());
  std::printf("# wrote telemetry_trace.json (chrome://tracing / "
              "Perfetto)\n");

  bench::WriteBenchJson(
      "telemetry",
      {{"admit_throughput_noop_sink", throughput_off},
       {"admit_throughput_full_instrumentation", throughput_full},
       {"overhead_fraction", overhead},
       {"spans_recorded", static_cast<double>(tracer.span_count())},
       {"metric_series", static_cast<double>(series)},
       {"reports_identical", 1.0}});
  return 0;
}
