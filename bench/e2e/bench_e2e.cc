// Copyright 2026 The streambid Authors
// The repo benchmark: offer -> admit -> execute -> bill through the
// public front door, gate::StreamIngress::Offer / ClosePeriod over a
// cluster::ClusterCenter, on one of three workloads (workloads.h).
//
// One process runs one workload in three phases:
//  1. set-up: construction and warm-up periods, repeated a few times;
//     setup_s is the median wall time;
//  2. the timed window: a fixed number of closed-loop periods (offer a
//     batch, close the period);
//  3. the correctness checks: gate accounting and revenue conservation
//     every period, and a replay of the first timed periods on a fresh
//     cluster through direct Submit + RunPeriod that must match byte for
//     byte.
//
// Every timing is a median over the window's periods, so a few periods
// slowed by the host move no end-to-end metric; the tails are per-layer
// readings.
//
// --trace 1 replaces phase 2 with the per-layer ledger, measured from
// outside the program: a short untraced run, the same run with the
// period tracer on (serial phase self-times, written as a Perfetto
// trace), the same run again on a pool of two (the pool speed-up), and a
// layer walk that replays the batches serially through standalone
// ShardRouter / DsmsCenter / AdmissionService objects with a timer and
// an allocation count around every public call.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. Progress goes to
// stderr. Exit code 0 iff every check held.
//
// Usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--smoke] [--out-dir DIR]
//        bench_e2e --about   (compiler and usable CPUs, as JSON)

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/alloc_probe.h"
#include "bench/e2e/workloads.h"
#include "cloud/dsms_center.h"
#include "cluster/cluster_center.h"
#include "cluster/shard_router.h"
#include "common/check.h"
#include "common/cpu.h"
#include "gate/stream_ingress.h"
#include "service/admission_service.h"
#include "stream/load_estimator.h"
#include "telemetry/trace.h"

namespace streambid::bench::e2e {
namespace {

constexpr int kWarmupPeriods = 10;
constexpr int kSetupRepetitions = 5;
constexpr int kReplayPeriods = 20;
constexpr double kMinAdmittedFraction = 0.3;
constexpr double kMaxAdmittedFraction = 0.8;
constexpr double kMinSpanCoverage = 0.90;
constexpr double kMinWalkCoverage = 0.95;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Collects failed correctness checks; the run reports correct=false
/// instead of aborting, so every failure of one run is listed.
class Verdict {
 public:
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  bool correct() const { return correct_; }

 private:
  bool correct_ = true;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Deployment: the system under test plus the generator cursor.

struct Deployment {
  std::unique_ptr<cluster::ClusterCenter> center;
  std::unique_ptr<gate::StreamIngress> gate;
  int64_t next_offer = 0;
  /// Wall time of construction plus the warm-up periods' offers and
  /// closes (their batches are generated off the clock).
  double setup_s = 0.0;
};

/// Builds the cluster and the gate, then runs `warmup` closed-loop
/// periods of offers_per_period offers through the gate.
Deployment Deploy(const WorkloadSpec& spec, uint64_t seed, double capacity,
                  int pool_threads, telemetry::PeriodTracer* tracer,
                  int warmup, const OfferGenerator& generator) {
  Deployment d;
  int64_t start = NowNs();
  d.center = std::make_unique<cluster::ClusterCenter>(
      MakeClusterOptions(spec, seed, capacity, pool_threads, tracer),
      [&spec, seed](stream::Engine& engine) {
        return ConfigureEngine(spec, seed, engine);
      });
  d.gate = std::make_unique<gate::StreamIngress>(
      d.center.get(), MakeIngressOptions(spec, tracer));
  int64_t elapsed = NowNs() - start;
  std::vector<stream::QuerySubmission> batch;
  for (int p = 0; p < warmup; ++p) {
    batch.clear();
    for (int i = 0; i < spec.offers_per_period; ++i) {
      batch.push_back(generator.Make(d.next_offer++));
    }
    start = NowNs();
    for (stream::QuerySubmission& sub : batch) {
      STREAMBID_CHECK(d.gate->Offer(std::move(sub)).ok());
    }
    STREAMBID_CHECK(d.gate->ClosePeriod().ok());
    elapsed += NowNs() - start;
  }
  d.setup_s = static_cast<double>(elapsed) / 1e9;
  return d;
}

// ---------------------------------------------------------------------------
// The timed window.

struct PeriodSample {
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t dropped = 0;
  double revenue = 0.0;
  double energy_cost = 0.0;
  double wait_p99_ms = 0.0;
};

struct Window {
  int first_period = 0;  ///< History index of the first timed period.
  int periods = 0;
  int64_t offered = 0;
  int64_t failed = 0;  ///< Shed + dropped (a period error aborts).
  double wall_s = 0.0;
  int64_t allocs = 0;
  std::vector<double> period_ms;
  /// Per period: offers carried to its report / (offer phase +
  /// ClosePeriod) wall time.
  std::vector<double> per_s;
  std::vector<double> decision_ms;
  std::vector<double> offer_us;
  std::vector<PeriodSample> samples;

  double queries_per_s() const { return Percentile(per_s, 0.5); }
  double net_profit_per_period() const {
    double net = 0.0;
    for (const PeriodSample& s : samples) net += s.revenue - s.energy_cost;
    return Ratio(net, static_cast<double>(samples.size()));
  }
};

void RecordClose(const gate::GatedPeriodReport& gated, Window& w) {
  PeriodSample s;
  s.offered = gated.gate.offered;
  s.admitted = gated.gate.admitted;
  s.shed = gated.gate.shed;
  s.dropped = gated.gate.dropped;
  s.revenue = gated.report.revenue;
  s.energy_cost = gated.report.energy_cost;
  s.wait_p99_ms = gated.gate.wait_p99_ms;
  w.samples.push_back(s);
  w.failed += s.shed + s.dropped;
}

/// Each period's batch is generated outside the window, then offered
/// and closed inside it. Allocations are counted only while the system
/// runs.
Window RunWindow(Deployment& d, const WorkloadSpec& spec,
                 const OfferGenerator& generator, int periods) {
  const int batch_size = spec.offers_per_period;
  Window w;
  w.first_period = static_cast<int>(d.center->history().size());
  w.period_ms.reserve(static_cast<size_t>(periods));
  w.per_s.reserve(static_cast<size_t>(periods));
  w.samples.reserve(static_cast<size_t>(periods));
  w.decision_ms.reserve(static_cast<size_t>(periods) * batch_size);
  w.offer_us.reserve(static_cast<size_t>(periods) * batch_size);
  std::vector<stream::QuerySubmission> batch;
  batch.reserve(static_cast<size_t>(batch_size));
  std::vector<int64_t> issued(static_cast<size_t>(batch_size));
  int64_t wall_ns = 0;
  for (int p = 0; p < periods; ++p) {
    batch.clear();
    for (int i = 0; i < batch_size; ++i) {
      batch.push_back(generator.Make(d.next_offer++));
    }
    const int64_t allocs_before = AllocCount();
    const int64_t start = NowNs();
    for (int i = 0; i < batch_size; ++i) {
      const int64_t t0 = NowNs();
      const Status status =
          d.gate->Offer(std::move(batch[static_cast<size_t>(i)]));
      const int64_t t1 = NowNs();
      issued[static_cast<size_t>(i)] = t0;
      w.offer_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      STREAMBID_CHECK(status.ok() ||
                      status.code() == StatusCode::kResourceExhausted);
    }
    const int64_t close_start = NowNs();
    Result<gate::GatedPeriodReport> gated = d.gate->ClosePeriod();
    const int64_t close_end = NowNs();
    w.allocs += AllocCount() - allocs_before;
    wall_ns += close_end - start;
    STREAMBID_CHECK(gated.ok());
    w.period_ms.push_back(static_cast<double>(close_end - close_start) / 1e6);
    for (int i = 0; i < batch_size; ++i) {
      const int64_t decision_ns = close_end - issued[static_cast<size_t>(i)];
      w.decision_ms.push_back(static_cast<double>(decision_ns) / 1e6);
    }
    RecordClose(*gated, w);
    w.per_s.push_back(Ratio(static_cast<double>(gated->gate.admitted),
                            static_cast<double>(close_end - start) / 1e9));
    w.offered += batch_size;
  }
  w.periods = periods;
  w.wall_s = static_cast<double>(wall_ns) / 1e9;
  return w;
}

// ---------------------------------------------------------------------------
// Correctness.

void CheckWindow(const Deployment& d, const gate::IngressOptions& ingress,
                 const Window& w, Verdict& verdict) {
  const std::vector<cluster::ClusterPeriodReport>& history =
      d.center->history();
  verdict.Check(static_cast<int>(history.size()) == w.first_period + w.periods,
                "one cluster report per timed period");
  for (int p = 0; p < w.periods; ++p) {
    const PeriodSample& s = w.samples[static_cast<size_t>(p)];
    const std::string at = " (timed period " + std::to_string(p) + ")";
    verdict.Check(s.offered == s.admitted + s.shed + s.dropped,
                  "offered == accepted + shed + dropped" + at);
    const cluster::ClusterPeriodReport& report =
        history[static_cast<size_t>(w.first_period + p)];
    // Hash-map order changes the rounding of the sum, hence the tolerance.
    double payments = 0.0;
    for (const cloud::PeriodReport& shard : report.shard_reports) {
      for (const auto& [query, payment] : shard.payments) payments += payment;
    }
    verdict.Check(std::fabs(payments - report.revenue) <=
                      1e-9 * std::max(1.0, std::fabs(report.revenue)),
                  "report revenue == sum of shard payments" + at);
  }
  verdict.Check(d.gate->buffered_high_water() <=
                    ingress.tickets_per_class * ingress.tenant_classes,
                "buffered_high_water <= total tickets");
  double reported = 0.0;
  for (const cluster::ClusterPeriodReport& report : history) {
    reported += report.revenue;
  }
  verdict.Check(std::fabs(d.center->total_revenue() - reported) <=
                    1e-7 * std::max(1.0, reported),
                "total_revenue() == sum of report revenue");
}

/// Runs periods [0, warmup + replay) on a fresh single-worker cluster
/// through direct Submit + RunPeriod and compares the last `replay`
/// reports with the gated run's.
void CheckReplay(const WorkloadSpec& spec, uint64_t seed, double capacity,
                 const OfferGenerator& generator, const Deployment& gated,
                 int warmup, int replay, Verdict& verdict) {
  cluster::ClusterCenter reference(
      MakeClusterOptions(spec, seed, capacity, 1, nullptr),
      [&spec, seed](stream::Engine& engine) {
        return ConfigureEngine(spec, seed, engine);
      });
  const std::vector<cluster::ClusterPeriodReport>& history =
      gated.center->history();
  int64_t next = 0;
  for (int p = 0; p < warmup + replay; ++p) {
    for (int i = 0; i < spec.offers_per_period; ++i) {
      STREAMBID_CHECK(reference.Submit(generator.Make(next++)).ok());
    }
    const Result<cluster::ClusterPeriodReport> r = reference.RunPeriod();
    STREAMBID_CHECK(r.ok());
    if (p < warmup) continue;
    const cluster::ClusterPeriodReport& a = *r;
    const cluster::ClusterPeriodReport& b = history[static_cast<size_t>(p)];
    const std::string at = " (replayed period " + std::to_string(p) + ")";
    bool same = a.submissions == b.submissions && a.admitted == b.admitted &&
                a.revenue == b.revenue && a.total_payoff == b.total_payoff &&
                a.shard_reports.size() == b.shard_reports.size();
    for (size_t s = 0; same && s < a.shard_reports.size(); ++s) {
      const cloud::PeriodReport& sa = a.shard_reports[s];
      const cloud::PeriodReport& sb = b.shard_reports[s];
      same = sa.admitted_ids == sb.admitted_ids &&
             sa.payments == sb.payments && sa.revenue == sb.revenue;
    }
    verdict.Check(same, "gated report == direct pool-1 replay" + at);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---------------------------------------------------------------------------
// End-to-end mode.

struct Sizes {
  int warmup = kWarmupPeriods;
  int setup_repetitions = kSetupRepetitions;
  int timed_periods = 0;
  int replay_periods = kReplayPeriods;
  int trace_periods = 0;
};

Sizes SizesFor(const WorkloadSpec& spec, double seconds, bool smoke) {
  Sizes sizes;
  sizes.timed_periods = std::max(
      1, static_cast<int>(std::lround(seconds * spec.periods_per_second)));
  // The traced run makes four short passes, one on a pool of two and
  // one serial walk; a sixth of the timed window each keeps the whole
  // traced run within the end-to-end run's length.
  sizes.trace_periods = std::max(8, sizes.timed_periods / 6);
  if (smoke) {
    sizes.warmup = 2;
    sizes.setup_repetitions = 1;
    sizes.timed_periods = 8;
    sizes.replay_periods = 4;
    sizes.trace_periods = 2;
  }
  sizes.replay_periods = std::min(sizes.replay_periods, sizes.timed_periods);
  return sizes;
}

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

Outcome RunEndToEnd(const WorkloadSpec& spec, uint64_t seed,
                    double capacity, const Sizes& sizes) {
  Verdict verdict;
  const OfferGenerator generator(spec, seed);
  std::vector<double> setup_s;
  std::optional<Deployment> deployed;
  for (int rep = 0; rep < sizes.setup_repetitions; ++rep) {
    deployed.reset();  // Tear down the previous repetition first.
    deployed.emplace(Deploy(spec, seed, capacity, kPoolThreads, nullptr,
                            sizes.warmup, generator));
    setup_s.push_back(deployed->setup_s);
  }
  Deployment& d = *deployed;
  std::fprintf(stderr, "%s: set-up %.3f s (median of %d), capacity %.2f\n",
               spec.name, Percentile(setup_s, 0.5), sizes.setup_repetitions,
               capacity);

  const Window w = RunWindow(d, spec, generator, sizes.timed_periods);
  std::fprintf(stderr, "%s: %d periods, %lld offers in %.3f s\n", spec.name,
               w.periods, static_cast<long long>(w.offered), w.wall_s);

  CheckWindow(d, MakeIngressOptions(spec, nullptr), w, verdict);
  int64_t admitted = 0;
  int64_t submissions = 0;
  for (int p = w.first_period; p < w.first_period + w.periods; ++p) {
    admitted += d.center->history()[static_cast<size_t>(p)].admitted;
    submissions += d.center->history()[static_cast<size_t>(p)].submissions;
  }
  const double admitted_fraction = Ratio(admitted, submissions);
  std::fprintf(stderr, "%s: admitted fraction %.3f\n", spec.name,
               admitted_fraction);
  verdict.Check(w.failed == 0, "closed loop: failed_fraction == 0");
  if (!spec.hot_tenants) {
    verdict.Check(admitted_fraction >= kMinAdmittedFraction &&
                      admitted_fraction <= kMaxAdmittedFraction,
                  "admitted fraction in [0.3, 0.8]");
  }
  CheckReplay(spec, seed, capacity, generator, d, sizes.warmup,
              sizes.replay_periods, verdict);
  if (spec.hot_tenants) {
    int moves = 0;
    for (const cluster::MigrationPlan& plan : d.center->migrations()) {
      if (plan.period > w.first_period) {
        moves += static_cast<int>(plan.moves.size());
      }
    }
    int changes = 0;
    for (int p = w.first_period; p < w.first_period + w.periods; ++p) {
      for (const cloud::PeriodReport& shard :
           d.center->history()[static_cast<size_t>(p)].shard_reports) {
        if (shard.autoscale_decision && shard.autoscale_decision->changed) {
          ++changes;
        }
      }
    }
    std::fprintf(stderr, "%s: %d tenant moves, %d capacity changes\n",
                 spec.name, moves, changes);
    verdict.Check(moves > 0, "hot_tenants: migrations > 0");
    verdict.Check(changes > 0, "hot_tenants: autoscale changes > 0");
  }

  Outcome out;
  out.correct = verdict.correct();
  out.attempted = w.offered;
  out.failed = w.failed;
  out.metrics = {
      {"setup_s", Percentile(setup_s, 0.5), "s"},
      {"queries_per_s", w.queries_per_s(), "1/s"},
      {"period_ms_p50", Percentile(w.period_ms, 0.5), "ms"},
      {"decision_ms_p50", Percentile(w.decision_ms, 0.5), "ms"},
      {"allocs_per_query", Ratio(static_cast<double>(w.allocs), w.offered),
       "count"},
      {"net_profit_per_period", w.net_profit_per_period(), "usd"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return out;
}

// ---------------------------------------------------------------------------
// Trace mode: the per-layer ledger.

/// Span durations of one traced pass, by phase.
struct SpanTotals {
  std::map<telemetry::Phase, std::vector<double>> ms;
  double total(telemetry::Phase phase) const {
    auto it = ms.find(phase);
    return it == ms.end() ? 0.0 : Sum(it->second);
  }
  double p50(telemetry::Phase phase) const {
    auto it = ms.find(phase);
    return it == ms.end() ? 0.0 : Percentile(it->second, 0.5);
  }
};

SpanTotals CollectSpans(const telemetry::PeriodTracer& tracer) {
  SpanTotals totals;
  for (const telemetry::TraceSpan& span : tracer.SortedSpans()) {
    totals.ms[span.phase].push_back(span.duration_ms);
  }
  return totals;
}

/// One public call site of the layer walk.
struct LayerMeter {
  int64_t calls = 0;
  int64_t ns = 0;
  int64_t allocs = 0;

  template <typename F>
  auto Time(F&& call) {
    const int64_t a0 = AllocCount();
    const int64_t t0 = NowNs();
    auto result = call();
    ns += NowNs() - t0;
    allocs += AllocCount() - a0;
    ++calls;
    return result;
  }
  double per_call_ns() const { return Ratio(static_cast<double>(ns), calls); }
  double allocs_per_call() const {
    return Ratio(static_cast<double>(allocs), calls);
  }
};

struct WalkResult {
  LayerMeter route, estimate, build, submit, prepare, admit, complete;
  double wall_ns = 0.0;
  int periods = 0;
  double queries = 0.0;    ///< Summed over auctions.
  double operators = 0.0;  ///< Summed over auctions.
  int auctions = 0;
  double source_tuples = 0.0;
  double cost_units = 0.0;
  double runtime_nodes = 0.0;
  double shared_nodes = 0.0;

  double timed_ns() const {
    return static_cast<double>(route.ns + estimate.ns + build.ns + submit.ns +
                               prepare.ns + admit.ns + complete.ns);
  }
};

/// Replays the workload's batches serially on this thread through
/// standalone router / center / service objects (no gate, no executor,
/// no rebalancer), timing every public call and counting its heap
/// allocations exactly.
WalkResult RunLayerWalk(const WorkloadSpec& spec, uint64_t seed,
                        double capacity, const OfferGenerator& generator,
                        int warmup, int periods) {
  const cluster::ClusterOptions options =
      MakeClusterOptions(spec, seed, capacity, 1, nullptr);
  const cluster::ShardRouter router(options.routing, kShards);
  const std::vector<cluster::ShardStatus> statuses(kShards);
  std::vector<std::unique_ptr<stream::Engine>> engines;
  std::vector<std::unique_ptr<cloud::DsmsCenter>> centers;
  for (int s = 0; s < kShards; ++s) {
    stream::EngineOptions engine_options = options.engine_options;
    engine_options.capacity = capacity / kShards;
    engines.push_back(std::make_unique<stream::Engine>(engine_options));
    STREAMBID_CHECK(ConfigureEngine(spec, seed, *engines.back()).ok());
    cloud::DsmsCenterOptions center_options;
    center_options.period_length = options.period_length;
    center_options.mechanism = options.mechanism;
    center_options.load_options = options.load_options;
    center_options.seed = options.seed + static_cast<uint64_t>(s);
    center_options.autoscale = options.autoscale;
    center_options.shard_index = s;
    centers.push_back(std::make_unique<cloud::DsmsCenter>(
        center_options, engines.back().get()));
  }
  service::AdmissionService service;

  WalkResult r;
  std::vector<stream::QuerySubmission> batch;
  batch.reserve(static_cast<size_t>(spec.offers_per_period));
  std::vector<std::vector<stream::QuerySubmission>> routed(kShards);
  for (auto& shard : routed) {
    shard.reserve(static_cast<size_t>(spec.offers_per_period));
  }
  int64_t next = 0;
  for (int p = 0; p < warmup + periods; ++p) {
    const bool timed = p >= warmup;
    if (p == warmup) r = WalkResult{};
    batch.clear();
    for (int i = 0; i < spec.offers_per_period; ++i) {
      batch.push_back(generator.Make(next++));
    }
    std::vector<int64_t> emitted_before(kShards);
    for (int s = 0; s < kShards; ++s) {
      emitted_before[static_cast<size_t>(s)] =
          engines[static_cast<size_t>(s)]->source("quotes")->tuples_emitted() +
          engines[static_cast<size_t>(s)]->source("sensors")->tuples_emitted();
    }
    const int64_t wall0 = NowNs();
    for (stream::QuerySubmission& sub : batch) {
      const int s = r.route.Time([&] { return router.Route(sub, statuses); });
      routed[static_cast<size_t>(s)].push_back(std::move(sub));
    }
    for (int s = 0; s < kShards; ++s) {
      stream::Engine& engine = *engines[static_cast<size_t>(s)];
      cloud::DsmsCenter& center = *centers[static_cast<size_t>(s)];
      std::vector<stream::QuerySubmission>& subs =
          routed[static_cast<size_t>(s)];
      for (const stream::QuerySubmission& sub : subs) {
        STREAMBID_CHECK(r.estimate
                            .Time([&] {
                              return stream::EstimatePlanLoad(
                                  engine, sub.plan, options.load_options);
                            })
                            .ok());
      }
      if (!subs.empty()) {
        const Result<stream::AuctionBuild> build = r.build.Time([&] {
          return stream::BuildAuctionInstance(engine, subs,
                                              options.load_options);
        });
        STREAMBID_CHECK(build.ok());
        r.queries += build->instance.num_queries();
        r.operators += build->instance.num_operators();
        ++r.auctions;
      }
      for (stream::QuerySubmission& sub : subs) {
        STREAMBID_CHECK(
            r.submit.Time([&] { return center.Submit(std::move(sub)); }).ok());
      }
      subs.clear();
      Result<cloud::PreparedAuction> prepared =
          r.prepare.Time([&] { return center.PrepareAuction(); });
      STREAMBID_CHECK(prepared.ok());
      std::optional<Result<service::AdmissionResponse>> response;
      if (prepared->has_auction) {
        response.emplace(
            r.admit.Time([&] { return service.Admit(prepared->request); }));
        STREAMBID_CHECK(response->ok());
      }
      STREAMBID_CHECK(r.complete
                          .Time([&] {
                            return center.CompletePeriod(
                                response ? &**response : nullptr);
                          })
                          .ok());
    }
    if (!timed) continue;
    r.wall_ns += static_cast<double>(NowNs() - wall0);
    ++r.periods;
    for (int s = 0; s < kShards; ++s) {
      const stream::Engine& engine = *engines[static_cast<size_t>(s)];
      r.source_tuples += static_cast<double>(
          engine.source("quotes")->tuples_emitted() +
          engine.source("sensors")->tuples_emitted() -
          emitted_before[static_cast<size_t>(s)]);
      r.cost_units += engine.LastRunCost();
      r.runtime_nodes += engine.num_runtime_nodes();
      r.shared_nodes += engine.num_shared_nodes();
    }
  }
  return r;
}

Outcome RunTrace(const WorkloadSpec& spec, uint64_t seed, double capacity,
                 const Sizes& sizes, const std::string& out_dir) {
  using telemetry::Phase;
  Verdict verdict;
  const OfferGenerator generator(spec, seed);
  const int n = sizes.trace_periods;
  const gate::IngressOptions ingress = MakeIngressOptions(spec, nullptr);
  Outcome out;
  auto account = [&out](const Window& w) {
    out.attempted += w.offered;
    out.failed += w.failed;
  };

  // Pass 0: the end-to-end configuration, untraced — the overhead
  // baseline and the tails.
  Window untraced;
  {
    Deployment d = Deploy(spec, seed, capacity, kPoolThreads, nullptr,
                          sizes.warmup, generator);
    untraced = RunWindow(d, spec, generator, n);
    CheckWindow(d, ingress, untraced, verdict);
    account(untraced);
  }

  // Pass 1: the end-to-end configuration with the tracer on. The pool
  // of one runs the shard chains one after another, so the spans and
  // the main thread's ClosePeriod wall time add up.
  telemetry::PeriodTracer tracer1;
  Window traced;
  std::string identity1;
  SpanTotals spans1;
  int64_t moves = 0;
  int64_t changes = 0;
  int64_t admitted = 0;
  int64_t submissions = 0;
  std::vector<double> shard_submissions(kShards);
  int buffered_high_water = 0;
  {
    Deployment d = Deploy(spec, seed, capacity, kPoolThreads, &tracer1,
                          sizes.warmup, generator);
    tracer1.Clear();
    const size_t plans_before = d.center->migrations().size();
    traced = RunWindow(d, spec, generator, n);
    CheckWindow(d, ingress, traced, verdict);
    account(traced);
    const std::string path = out_dir + "/trace_" + spec.name + ".json";
    verdict.Check(tracer1.WriteChromeTrace(path).ok(),
                  "trace written to " + path);
    identity1 = tracer1.IdentitySequence();
    spans1 = CollectSpans(tracer1);
    for (size_t k = plans_before; k < d.center->migrations().size(); ++k) {
      moves += static_cast<int64_t>(d.center->migrations()[k].moves.size());
    }
    const int end = traced.first_period + traced.periods;
    for (int p = traced.first_period; p < end; ++p) {
      const cluster::ClusterPeriodReport& report =
          d.center->history()[static_cast<size_t>(p)];
      admitted += report.admitted;
      submissions += report.submissions;
      for (size_t s = 0; s < report.shard_reports.size(); ++s) {
        const cloud::PeriodReport& shard = report.shard_reports[s];
        shard_submissions[s] += shard.submissions;
        if (shard.autoscale_decision && shard.autoscale_decision->changed) {
          ++changes;
        }
      }
    }
    buffered_high_water = d.gate->buffered_high_water();
  }

  // Pass 2: the same run on a pool of two with the tracer on.
  telemetry::PeriodTracer tracer2;
  Window parallel;
  {
    Deployment d = Deploy(spec, seed, capacity, kParallelPoolThreads,
                          &tracer2, sizes.warmup, generator);
    tracer2.Clear();
    parallel = RunWindow(d, spec, generator, n);
    CheckWindow(d, ingress, parallel, verdict);
    account(parallel);
  }
  verdict.Check(tracer2.IdentitySequence() == identity1,
                "trace identity: pool 2 == pool 1 (pool size changes no "
                "logical span)");
  const double close_ms = Sum(traced.period_ms);
  const double prepare_self =
      spans1.total(Phase::kPrepare) - spans1.total(Phase::kAutoscale);
  const double covered = spans1.total(Phase::kGateDrain) + prepare_self +
                         spans1.total(Phase::kAutoscale) +
                         spans1.total(Phase::kAdmit) +
                         spans1.total(Phase::kComplete) +
                         spans1.total(Phase::kRebalance);
  const double span_coverage = Ratio(covered, close_ms);
  verdict.Check(span_coverage >= kMinSpanCoverage,
                "span coverage " + std::to_string(span_coverage) + " >= 0.90");

  // Pass 3: the layer walk.
  const WalkResult walk = RunLayerWalk(spec, seed, capacity, generator,
                                       sizes.warmup, n);
  const double walk_coverage = Ratio(walk.timed_ns(), walk.wall_ns);
  verdict.Check(walk_coverage >= kMinWalkCoverage,
                "walk coverage " + std::to_string(walk_coverage) + " >= 0.95");
  out.attempted += static_cast<int64_t>(walk.periods) * spec.offers_per_period;

  const double mean_shard = Sum(shard_submissions) / kShards;
  const double max_shard =
      *std::max_element(shard_submissions.begin(), shard_submissions.end());
  double wait_p99_ms = 0.0;
  int64_t shed = 0;
  for (const PeriodSample& s : traced.samples) {
    wait_p99_ms = std::max(wait_p99_ms, s.wait_p99_ms);
    shed += s.shed;
  }
  const double walk_periods = std::max(1, walk.periods);
  const double complete_ms = static_cast<double>(walk.complete.ns) / 1e6;
  auto share = [&](Phase phase) {
    return Ratio(spans1.total(phase), close_ms);
  };

  out.correct = verdict.correct();
  out.metrics = {
      {"gate.drain_ms_p50", spans1.p50(Phase::kGateDrain), "ms"},
      {"gate.drain_share", share(Phase::kGateDrain), "ratio"},
      {"gate.shed", static_cast<double>(shed), "count"},
      {"gate.buffered_high_water", static_cast<double>(buffered_high_water),
       "count"},
      {"gate.wait_p99_ms", wait_p99_ms, "ms"},
      {"gate.offer_us_p50", Percentile(untraced.offer_us, 0.5), "us"},
      {"gate.offer_us_p99", Percentile(untraced.offer_us, 0.99), "us"},
      {"gate.period_ms_p95", Percentile(untraced.period_ms, 0.95), "ms"},
      {"gate.decision_ms_p99", Percentile(untraced.decision_ms, 0.99), "ms"},
      {"cluster.route_ns", walk.route.per_call_ns(), "ns"},
      {"cluster.route_allocs", walk.route.allocs_per_call(), "count"},
      {"cluster.rebalance_ms_p50", spans1.p50(Phase::kRebalance), "ms"},
      {"cluster.rebalance_share", share(Phase::kRebalance), "ratio"},
      {"cluster.migrations", static_cast<double>(moves), "count"},
      {"cluster.other_share", 1.0 - span_coverage, "ratio"},
      {"cluster.pool_speedup",
       Ratio(Percentile(traced.period_ms, 0.5),
             Percentile(parallel.period_ms, 0.5)),
       "x"},
      {"cluster.shard_skew", Ratio(max_shard, mean_shard), "x"},
      {"cloud.submit_us", walk.submit.per_call_ns() / 1e3, "us"},
      {"cloud.submit_allocs", walk.submit.allocs_per_call(), "count"},
      {"cloud.prepare_ms", walk.prepare.per_call_ns() / 1e6, "ms"},
      {"cloud.prepare_allocs", walk.prepare.allocs_per_call(), "count"},
      {"cloud.complete_ms", walk.complete.per_call_ns() / 1e6, "ms"},
      {"cloud.complete_allocs", walk.complete.allocs_per_call(), "count"},
      {"cloud.prepare_share", Ratio(prepare_self, close_ms), "ratio"},
      {"cloud.autoscale_share", share(Phase::kAutoscale), "ratio"},
      {"cloud.complete_share", share(Phase::kComplete), "ratio"},
      {"cloud.autoscale_ms_p50", spans1.p50(Phase::kAutoscale), "ms"},
      {"cloud.autoscale_changes", static_cast<double>(changes), "count"},
      {"auction.admit_ms", walk.admit.per_call_ns() / 1e6, "ms"},
      {"auction.admit_allocs", walk.admit.allocs_per_call(), "count"},
      {"auction.admit_share", share(Phase::kAdmit), "ratio"},
      {"auction.queries_per_auction", Ratio(walk.queries, walk.auctions),
       "count"},
      {"auction.operators_per_auction", Ratio(walk.operators, walk.auctions),
       "count"},
      {"auction.admitted_fraction", Ratio(admitted, submissions), "ratio"},
      {"stream.estimate_us", walk.estimate.per_call_ns() / 1e3, "us"},
      {"stream.estimate_allocs", walk.estimate.allocs_per_call(), "count"},
      {"stream.build_instance_ms", walk.build.per_call_ns() / 1e6, "ms"},
      {"stream.build_instance_allocs", walk.build.allocs_per_call(), "count"},
      {"stream.source_tuples_per_period", walk.source_tuples / walk_periods,
       "tuples"},
      {"stream.cost_units_per_period", walk.cost_units / walk_periods,
       "cost_units"},
      {"stream.runtime_nodes", walk.runtime_nodes / walk_periods, "count"},
      {"stream.shared_node_fraction",
       Ratio(walk.shared_nodes, walk.runtime_nodes), "ratio"},
      {"stream.tuples_per_complete_ms", Ratio(walk.source_tuples, complete_ms),
       "tuples/ms"},
      {"telemetry.trace_overhead",
       1.0 - Ratio(traced.queries_per_s(), untraced.queries_per_s()), "ratio"},
      {"telemetry.span_coverage", span_coverage, "ratio"},
      {"telemetry.walk_coverage", walk_coverage, "ratio"},
  };
  return out;
}

// ---------------------------------------------------------------------------

void PrintResult(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (size_t k = 0; k < out.metrics.size(); ++k) {
    const Metric& m = out.metrics[k];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_e2e --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]\n",
               error);
  std::exit(2);
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0') Usage("--seed must be an integer");
    } else if (arg == "--seconds") {
      const std::string text = value();
      char* end = nullptr;
      seconds = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0') Usage("--seconds must be a number");
    } else if (arg == "--trace") {
      trace = value() == "1";
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out-dir") {
      out_dir = value();
    } else if (arg == "--about") {
      // The host stamp run.py writes into every result set.
      std::printf("{\"compiler\": \"%s\", \"cpus\": %d}\n", __VERSION__,
                  AvailableCpuCount());
      return 0;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) Usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0.0 && seconds <= 600.0)) {
    Usage("--seconds must be in (0, 600]");
  }
  if (!AllocProbeAvailable()) {
    std::fprintf(stderr,
                 "warning: sanitizer build, allocation counts read 0\n");
  }

  const Sizes sizes = SizesFor(*spec, seconds, smoke);
  const double capacity = CalibrateCapacity(*spec);
  bool correct = true;
  if (!trace || smoke) {
    const Outcome out = RunEndToEnd(*spec, seed, capacity, sizes);
    correct = correct && out.correct;
    PrintResult(out);
  }
  if (trace || smoke) {
    const Outcome out = RunTrace(*spec, seed, capacity, sizes, out_dir);
    correct = correct && out.correct;
    PrintResult(out);
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace streambid::bench::e2e

int main(int argc, char** argv) {
  return streambid::bench::e2e::Main(argc, argv);
}
