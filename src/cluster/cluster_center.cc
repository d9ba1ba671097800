// Copyright 2026 The streambid Authors

#include "cluster/cluster_center.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace streambid::cluster {

ClusterCenter::ClusterCenter(const ClusterOptions& options,
                             const EngineConfigurator& configure_engine)
    : options_(options),
      router_(options.routing, options.num_shards),
      rebalancer_(options.rebalance, options.num_shards),
      executor_(ExecutorOptions{.num_threads = options.executor_threads,
                                .metrics = options.metrics}) {
  STREAMBID_CHECK_GE(options.num_shards, 1);
  STREAMBID_CHECK_GT(options.total_capacity, 0.0);

  stream::EngineOptions engine_options = options.engine_options;
  engine_options.capacity =
      options.total_capacity / options.num_shards;

  shards_.reserve(static_cast<size_t>(options.num_shards));
  statuses_.resize(static_cast<size_t>(options.num_shards));
  for (int s = 0; s < options.num_shards; ++s) {
    Shard shard;
    shard.engine = std::make_unique<stream::Engine>(engine_options);
    if (configure_engine) {
      const Status status = configure_engine(*shard.engine);
      STREAMBID_CHECK(status.ok());
    }
    cloud::DsmsCenterOptions center_options;
    center_options.period_length = options.period_length;
    center_options.mechanism = options.mechanism;
    center_options.load_options = options.load_options;
    // Independent per-shard streams: shard s replays from (seed + s,
    // period) no matter what the other shards do.
    center_options.seed = options.seed + static_cast<uint64_t>(s);
    center_options.autoscale = options.autoscale;
    center_options.metrics = options.metrics;
    center_options.shard_index = s;
    center_options.tracer = options.tracer;
    shard.center = std::make_unique<cloud::DsmsCenter>(center_options,
                                                       shard.engine.get());
    // The router sees each shard's provisioning from the start.
    statuses_[static_cast<size_t>(s)].next_capacity =
        shard.engine->options().capacity;
    shards_.push_back(std::move(shard));
  }
  if (options_.metrics != nullptr) {
    periods_metric_ = options_.metrics->GetCounter("cluster_periods");
    migrated_tenants_metric_ =
        options_.metrics->GetCounter("cluster_migrated_tenants");
  }
}

Result<int> ClusterCenter::Submit(stream::QuerySubmission submission) {
  const auction::UserId user = submission.user;
  const int s = router_.Route(submission, statuses_, &overrides_);
  // The shard's Submit is the one gate: it validates and prices the
  // plan, and a rejected submission changes no state — not the shard's
  // queue, the router's view, nor the tenant signals below.
  STREAMBID_ASSIGN_OR_RETURN(
      const double load,
      shards_[static_cast<size_t>(s)].center->Submit(std::move(submission)));
  statuses_[static_cast<size_t>(s)].pending_load += load;
  // The rebalancer's signal source: where this tenant lives and how
  // much demand it generated this period. Only the rebalancer reads it.
  if (options_.rebalance.enabled) {
    TenantRecord& record = tenants_[user];
    record.home = s;
    record.period_load += load;
  }
  return s;
}

Result<cloud::PeriodReport> ClusterCenter::RunShardPeriod(
    int s, uint64_t epoch, WorkerContext& context) {
  cloud::DsmsCenter& center = *shards_[static_cast<size_t>(s)].center;
  // Logical span key: the shard's own period number, fixed before any
  // stage mutates center state.
  const int period = static_cast<int>(center.history().size());
  telemetry::PeriodTracer* tracer = options_.tracer;
  center.set_trace_epoch(epoch);
  // Stage 1: the autoscaled prepare (candidate grid + instance build)
  // — shard-local, so fanning it onto the pool changes no outcome.
  cloud::PreparedAuction prepared;
  {
    telemetry::ScopedSpan span(tracer, telemetry::Phase::kPrepare, period,
                               s, epoch);
    STREAMBID_ASSIGN_OR_RETURN(prepared, center.PrepareAuction());
  }
  // Stage 2: the auction, on this worker's own service. The
  // (seed + shard, period) request stream makes the response identical
  // to any other service running it.
  const service::AdmissionResponse* response = nullptr;
  service::AdmissionResponse admitted;
  if (prepared.has_auction) {
    telemetry::ScopedSpan span(tracer, telemetry::Phase::kAdmit, period, s,
                               epoch);
    STREAMBID_ASSIGN_OR_RETURN(admitted,
                               context.service->Admit(prepared.request));
    response = &admitted;
  }
  // Stage 3: query swap + engine execution + billing.
  telemetry::ScopedSpan span(tracer, telemetry::Phase::kComplete, period, s,
                             epoch);
  return center.CompletePeriod(response);
}

Result<ClusterPeriodReport> ClusterCenter::RunPeriod() {
  Timer timer;
  const uint64_t epoch = ++period_epoch_;
  std::vector<TaskExecutor::Task<cloud::PeriodReport>> chains;
  chains.reserve(shards_.size());
  for (int s = 0; s < num_shards(); ++s) {
    chains.push_back([this, s, epoch](WorkerContext& context) {
      return RunShardPeriod(s, epoch, context);
    });
  }
  return MergeCompleted(executor_.RunAll(chains), timer);
}

Result<ClusterPeriodReport> ClusterCenter::MergeCompleted(
    std::vector<Result<cloud::PeriodReport>> completed,
    const Timer& timer) {
  const int n = num_shards();

  // --- Refresh the router's view for every shard that completed:
  // pending demand was consumed, and the engine keeps this period's
  // provisioning until the next prepare phase re-decides, so it is the
  // router's best view of the shard's next-period capacity. This runs
  // before any failure surfaces so a partial failure does not leave
  // stale pending-load bias on the surviving shards (a failed shard
  // itself is unrecoverable — its engine may hold a half-swapped query
  // set — matching DsmsCenter::RunPeriod error semantics). ---
  Status first_error;
  for (int s = 0; s < n; ++s) {
    const Result<cloud::PeriodReport>& result =
        completed[static_cast<size_t>(s)];
    if (!result.ok()) {
      if (first_error.ok()) first_error = result.status();
      continue;
    }
    ShardStatus& status = statuses_[static_cast<size_t>(s)];
    status.pending_load = 0.0;
    status.next_capacity = result->provisioned_capacity;
  }
  if (!first_error.ok()) return first_error;

  // --- Merge into the cluster view. Utilizations are weighted by each
  // shard's provisioned capacity: once the autoscalers diverge, a
  // plain mean would let a tiny busy shard read like half the cluster.
  // Every shard runs at a positive capacity, so the weights never sum
  // to zero. ---
  ClusterPeriodReport report;
  report.period = static_cast<int>(history_.size());
  report.shard_reports.reserve(static_cast<size_t>(n));
  double weighted_auction = 0.0;
  double weighted_measured = 0.0;
  for (int s = 0; s < n; ++s) {
    Result<cloud::PeriodReport>& result =
        completed[static_cast<size_t>(s)];
    const cloud::PeriodReport& shard_report = *result;
    report.submissions += shard_report.submissions;
    report.admitted += shard_report.admitted;
    report.revenue += shard_report.revenue;
    report.total_payoff += shard_report.total_payoff;
    weighted_auction +=
        shard_report.auction_utilization * shard_report.provisioned_capacity;
    weighted_measured +=
        shard_report.measured_utilization * shard_report.provisioned_capacity;
    report.provisioned_capacity += shard_report.provisioned_capacity;
    report.energy_cost += shard_report.energy_cost;
    report.shard_reports.push_back(std::move(result).value());
  }
  report.auction_utilization =
      weighted_auction / report.provisioned_capacity;
  report.measured_utilization =
      weighted_measured / report.provisioned_capacity;
  report.elapsed_ms = timer.ElapsedMillis();
  history_.push_back(report);
  if (periods_metric_ != nullptr) periods_metric_->Increment();

  // --- Fold the period's tenant activity into the rebalancer signals
  // (per-tenant state only: iteration order cannot matter), then run
  // the rebalance stage against the refreshed router view. ---
  for (auto& [user, record] : tenants_) {  // NOLINT(determinism): order-independent fold -- each tenant's record is updated from its own fields only, no cross-tenant state
    if (record.period_load > 0.0) {
      record.last_load = record.period_load;
      record.last_active_period = report.period;
      record.period_load = 0.0;
    }
  }
  {
    telemetry::ScopedSpan span(options_.tracer,
                               telemetry::Phase::kRebalance, report.period,
                               /*shard=*/-1, period_epoch_);
    RebalanceAfterPeriod();
  }
  return report;
}

void ClusterCenter::RebalanceAfterPeriod() {
  if (!options_.rebalance.enabled || num_shards() < 2) return;
  std::vector<TenantSignal> signals;
  signals.reserve(tenants_.size());
  for (const auto& [user, record] : tenants_) {  // NOLINT(determinism): collection order is irrelevant -- ShardRebalancer::Plan sorts the signals by user id before any decision
    TenantSignal signal;
    signal.user = user;
    signal.home = record.home;
    signal.load = record.last_load;
    signal.last_active_period = record.last_active_period;
    signal.last_moved_period = record.last_moved_period;
    signals.push_back(signal);
  }
  MigrationPlan plan = rebalancer_.Plan(
      static_cast<int>(history_.size()), statuses_,
      history_.back().shard_reports, std::move(signals));
  if (plan.moves.empty()) return;

  // Every shard's CompletePeriod has just emptied its queue, so a
  // tenant's only center-resident state is its ledger balance. All
  // extractions run before any adoption, each in plan order.
  std::vector<double> charged;
  charged.reserve(plan.moves.size());
  for (const TenantMove& move : plan.moves) {
    charged.push_back(
        shards_[static_cast<size_t>(move.from)].center->ExtractTenant(
            move.user));
  }
  // Adopt the balance and pin the tenant to its new home.
  for (size_t k = 0; k < plan.moves.size(); ++k) {
    const TenantMove& move = plan.moves[k];
    shards_[static_cast<size_t>(move.to)].center->AdoptTenant(move.user,
                                                               charged[k]);
    overrides_[move.user] = move.to;
    TenantRecord& record = tenants_[move.user];
    record.home = move.to;
    record.last_moved_period = plan.period;
  }
  if (migrated_tenants_metric_ != nullptr) {
    migrated_tenants_metric_->Increment(
        static_cast<int64_t>(plan.moves.size()));
  }
  migrations_.push_back(std::move(plan));
}

double ClusterCenter::total_revenue() const {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    total += shard.center->total_revenue();
  }
  return total;
}

}  // namespace streambid::cluster
