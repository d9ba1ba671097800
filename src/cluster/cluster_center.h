// Copyright 2026 The streambid Authors
// The sharded multi-center deployment: N DsmsCenters (each with its own
// engine at total_capacity / N) behind a ShardRouter, with every period
// stage — autoscaled prepare, admission, completion — running on the
// executor's persistent worker pool and the per-shard PeriodReports
// merged into a ClusterPeriodReport. No per-period threads are ever
// spawned, and shards flow through their stages independently instead
// of barriering between phases.
//
// RunPeriod() is the one period path. It runs one dependency chain per
// shard as a single RunAll batch on the pool, then merges:
//
//   shard k:  PrepareAuction ──▶ Admit (worker service) ──▶ CompletePeriod
//             (autoscaler grid)                             (query swap +
//                                                            engine + bill)
//
// Chains are mutually independent (a shard's service, engine, ledger,
// and autoscaler are private to it), so shard k's engine execution
// overlaps shard k+1's auction. Every stage is a deterministic function
// of shard-local state — the (seed + shard, period) request streams
// carry the auction RNG — so each shard's report is byte-identical to a
// standalone DsmsCenter::RunPeriod twin at every pool size.
//
// The period tail runs on the caller's thread: the router's per-shard
// view refreshes, the shard reports merge, and — when
// ClusterOptions::rebalance is enabled — a ShardRebalancer plans
// inter-period tenant migrations from the refreshed signals. Every
// shard's queue is empty by then, so a migration moves only the
// tenant's ledger balance and pins its routing. The plan is a pure
// function of (history, seed), so the replay contract survives
// rebalancing.

#ifndef STREAMBID_CLUSTER_CLUSTER_CENTER_H_
#define STREAMBID_CLUSTER_CLUSTER_CENTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "cloud/dsms_center.h"
#include "cluster/shard_rebalancer.h"
#include "cluster/shard_router.h"
#include "cluster/task_executor.h"
#include "common/status.h"
#include "common/timer.h"
#include "stream/engine.h"

namespace streambid::telemetry {
class Counter;
class MetricsRegistry;
class PeriodTracer;
}  // namespace streambid::telemetry

namespace streambid::cluster {

/// Cluster configuration.
struct ClusterOptions {
  /// Number of DsmsCenter shards (>= 1).
  int num_shards = 2;
  /// Total engine capacity, split evenly across shards.
  double total_capacity = 1000.0;
  /// Submission routing policy.
  RoutingPolicy routing = RoutingPolicy::kHashUser;
  /// Admission mechanism run by every shard.
  std::string mechanism = "cat";
  /// Per-period virtual execution length (see DsmsCenterOptions).
  stream::VirtualTime period_length = 3600.0;
  /// Load model for the per-shard auctions and the router's pending-load
  /// estimates.
  stream::LoadEstimateOptions load_options;
  /// Base seed; shard s auctions on stream (seed + s, period), so shard
  /// outcomes are independent and individually replayable.
  uint64_t seed = 1;
  /// Engine settings applied to every shard (capacity is overridden with
  /// the per-shard share).
  stream::EngineOptions engine_options;
  /// Executor pool size; 0 sizes to the hardware.
  int executor_threads = 0;
  /// Per-shard closed-loop capacity autoscaling. Each shard runs its
  /// own CapacityAutoscaler against its share of total_capacity (the
  /// ratio bounds apply to the per-shard baseline); decisions are made
  /// in the shard's own prepare stage from shard-local history, so the
  /// cluster's determinism contract is unchanged. The
  /// ClusterPeriodReport aggregates the shards' total provisioned
  /// capacity and energy cost.
  cloud::AutoscalerOptions autoscale;
  /// Inter-period tenant migration (see ShardRebalancer). When enabled,
  /// each period tail plans a bounded migration from the hottest shard
  /// to the coldest one, moves the tenants' ledger balances, and pins
  /// the moved tenants to their new home via routing overrides. Plans
  /// are pure functions of (history, rebalance.seed): replay is
  /// unchanged at every pool size.
  ///
  /// Meant for stable placements (kHashUser, or tenants already
  /// pinned): the per-tenant demand signal attributes a tenant's whole
  /// period load to the shard its LAST submission routed to, so under
  /// kLeastLoaded — where one tenant's submissions can spread over
  /// several shards within a period — the pressure signal is
  /// approximate until a migration pins the tenant (after which its
  /// traffic, and therefore its signal, is exact again).
  RebalancerOptions rebalance;
  /// Optional telemetry sink, fanned through every layer the cluster
  /// owns: the executor (task count, task latency), each worker's
  /// admission service, and each shard's DsmsCenter (per-shard labeled
  /// business series), plus the cluster's own period/migration
  /// counters. Null (the default) disables all of it. Must outlive the
  /// cluster.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Optional period tracer. When set, RunPeriod records one span per
  /// (period, shard, phase): prepare, admit, complete on the workers,
  /// plus the cluster-level rebalance stage (shard -1). Spans are write-only annotations — replay identity is
  /// unchanged with tracing on or off. Must outlive the cluster.
  telemetry::PeriodTracer* tracer = nullptr;
};

/// One cluster period: the merged view plus the per-shard breakdown.
struct ClusterPeriodReport {
  int period = 0;
  int submissions = 0;       ///< Sum over shards.
  int admitted = 0;          ///< Sum over shards.
  double revenue = 0.0;      ///< Sum over shards.
  double total_payoff = 0.0;
  /// Means over shards weighted by each shard's provisioned_capacity,
  /// so the cluster-level figure stays truthful after the autoscalers
  /// diverge per-shard capacity (a tiny shrunk shard at 100% must not
  /// read like half the cluster is busy).
  double auction_utilization = 0.0;
  double measured_utilization = 0.0;
  /// Total capacity provisioned across shards this period (== the
  /// configured total unless autoscaling re-provisioned shards).
  double provisioned_capacity = 0.0;
  /// Summed per-shard energy cost under the configured EnergyModel.
  double energy_cost = 0.0;
  /// Wall clock of the whole cluster period (chain submission through
  /// the merge).
  double elapsed_ms = 0.0;
  /// Indexed by shard; each report carries its mechanism name.
  std::vector<cloud::PeriodReport> shard_reports;
};

/// N admission-controlled centers behind one router and one executor.
/// Not thread-safe at the surface (one caller drives submissions and
/// periods); internally each shard's period chain runs on the
/// executor's persistent pool — no other threads are ever created.
class ClusterCenter {
 public:
  /// Applied to every shard engine at construction (register sources,
  /// etc.) before any submission arrives.
  using EngineConfigurator = std::function<Status(stream::Engine&)>;

  /// Preconditions (checked): num_shards >= 1, positive total capacity,
  /// registered mechanism (verified by each shard's DsmsCenter
  /// constructor). The configurator must succeed on every shard engine
  /// (checked).
  ClusterCenter(const ClusterOptions& options,
                const EngineConfigurator& configure_engine);

  /// Routes the submission to a shard and queues it there for the next
  /// period. Returns the shard index. The shard's DsmsCenter::Submit
  /// validates and prices the plan; its load estimate feeds the
  /// router's pending view and, when rebalancing is enabled, the
  /// tenant's rebalancer signal; a refused submission changes neither.
  /// Routing happens before admission: a submission rejected by its
  /// shard's auction is not re-routed.
  Result<int> Submit(stream::QuerySubmission submission);

  /// Runs one period: runs every shard's chain (prepare -> admit ->
  /// complete) as one RunAll batch on the executor pool, refreshes the
  /// router's view, merges the shard reports, appends to history(), and
  /// runs the rebalance stage. A failed chain surfaces as the
  /// lowest-shard-index error, with no report appended to history().
  Result<ClusterPeriodReport> RunPeriod();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ClusterOptions& options() const { return options_; }
  const ShardRouter& router() const { return router_; }
  const TaskExecutor& executor() const { return executor_; }
  const cloud::DsmsCenter& shard(int s) const {
    return *shards_[static_cast<size_t>(s)].center;
  }
  /// Router-visible status snapshots, indexed by shard.
  const std::vector<ShardStatus>& shard_statuses() const {
    return statuses_;
  }
  const std::vector<ClusterPeriodReport>& history() const {
    return history_;
  }
  /// Aggregate revenue across shards and periods.
  double total_revenue() const;

  /// Every migration plan that moved at least one tenant, in period
  /// order (empty unless options().rebalance.enabled).
  const std::vector<MigrationPlan>& migrations() const {
    return migrations_;
  }
  /// Tenants the rebalancer pinned away from their policy placement.
  const PlacementOverrides& placement_overrides() const {
    return overrides_;
  }
  const ShardRebalancer& rebalancer() const { return rebalancer_; }
  /// Epoch of the most recently run period (0 before the first). The
  /// gate layer stamps its drain spans with this after RunPeriod.
  uint64_t period_epoch() const { return period_epoch_; }

 private:
  struct Shard {
    std::unique_ptr<stream::Engine> engine;
    std::unique_ptr<cloud::DsmsCenter> center;
  };

  /// Shard s's whole period, run as one task on a pool worker: the
  /// autoscaled prepare, the auction on the worker's own service, and
  /// the completion. Touches only shard-local state plus the worker
  /// context. `epoch` is the issuing RunPeriod's epoch, captured into
  /// the task so trace spans carry the logical key without reading
  /// mutable cluster state.
  Result<cloud::PeriodReport> RunShardPeriod(int s, uint64_t epoch,
                                             WorkerContext& context);
  /// The serial period tail: refresh the router's per-shard view,
  /// surface the lowest-shard-index error, merge the reports, append to
  /// history, and run the rebalance stage. `completed` is indexed by
  /// shard.
  Result<ClusterPeriodReport> MergeCompleted(
      std::vector<Result<cloud::PeriodReport>> completed,
      const Timer& timer);
  /// The rebalance stage of the period tail: plan from the tenant
  /// signals, then move each planned tenant's ledger balance (every
  /// extraction, then every adoption, in plan order) and pin it to its
  /// new shard. Runs only after every shard's CompletePeriod emptied
  /// its queue. No-op when rebalancing is disabled or the plan is
  /// empty.
  void RebalanceAfterPeriod();

  /// Submit-time view of one tenant, the rebalancer's signal source;
  /// kept only while rebalancing is enabled.
  struct TenantRecord {
    int home = 0;             ///< Shard the last submission routed to.
    double period_load = 0.0; ///< Accumulating over the open period.
    double last_load = 0.0;   ///< Folded at the period close.
    int last_active_period = -1;
    int last_moved_period = std::numeric_limits<int>::min();
  };

  ClusterOptions options_;
  ShardRouter router_;
  ShardRebalancer rebalancer_;
  std::vector<Shard> shards_;
  std::vector<ShardStatus> statuses_;
  std::vector<ClusterPeriodReport> history_;
  std::unordered_map<auction::UserId, TenantRecord> tenants_;
  PlacementOverrides overrides_;
  std::vector<MigrationPlan> migrations_;
  /// Bumped by every RunPeriod; trace spans carry it as their epoch.
  uint64_t period_epoch_ = 0;
  /// Cluster-level telemetry instruments; null without options.metrics.
  telemetry::Counter* periods_metric_ = nullptr;
  telemetry::Counter* migrated_tenants_metric_ = nullptr;
  /// Declared last on purpose: members destroy in reverse declaration
  /// order, so ~TaskExecutor joins the workers before the shards any
  /// task could dereference are freed.
  TaskExecutor executor_;
};

}  // namespace streambid::cluster

#endif  // STREAMBID_CLUSTER_CLUSTER_CENTER_H_
