// Copyright 2026 The streambid Authors
// Inter-period tenant migration planning for the sharded deployment.
// The paper's admission auctions price capacity under the assumption
// that one center sees all competing queries; a static hash placement
// breaks that — a hot shard rejects bidders (revenue on the floor)
// while a cold shard idles. The ShardRebalancer closes the gap: between
// periods it reads each shard's next_capacity from the router-visible
// ShardStatus, the per-tenant demand signals, and the latest per-shard
// PeriodReports, and emits a bounded migration plan that moves tenants
// from the most pressured shard to the least pressured one.
//
// Determinism contract: Plan() is a pure function of its inputs and
// the construction-time (options, seed). It never reads a clock, an
// RNG stream, or executor state, so a cluster that replays the same
// submission history produces the identical migration sequence at
// every executor pool size — the same contract every other period
// stage already honors.
//
// Hysteresis, so placement cannot thrash:
//  - a plan is only emitted when the hot shard's recent demand exceeds
//    its next-period capacity AND it rejected work in the last period
//    (there is actual revenue to recover, not just noise);
//  - the hot shard's demand/capacity must exceed the cold shard's by
//    more than 25%;
//  - each move must keep the destination strictly less pressured than
//    the source after the move (a move can narrow the gap, never
//    invert it);
//  - a moved tenant is pinned for tenant_cooldown_periods;
//  - at most max_moves_per_period tenants move per period.

#ifndef STREAMBID_CLUSTER_SHARD_REBALANCER_H_
#define STREAMBID_CLUSTER_SHARD_REBALANCER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "auction/types.h"
#include "cloud/dsms_center.h"
#include "cluster/shard_router.h"

namespace streambid::cluster {

/// Migration-planning knobs. All thresholds are hysteresis: they gate
/// when a plan is emitted, not what the plan optimizes.
struct RebalancerOptions {
  bool enabled = false;
  /// Upper bound on tenants moved per period (>= 1 when enabled).
  int max_moves_per_period = 2;
  /// Completed periods required before the first plan (the signals
  /// need at least one auction outcome to mean anything).
  int min_history_periods = 2;
  /// A migrated tenant stays put for this many periods.
  int tenant_cooldown_periods = 3;
  /// Tie-break stream for tenants with exactly equal load; part of the
  /// (history, seed) determinism contract.
  uint64_t seed = 1;
};

/// What the planner knows about one tenant: its current placement and
/// the demand it generated recently. Maintained by the ClusterCenter
/// from its submit-time load estimates.
struct TenantSignal {
  auction::UserId user = 0;
  int home = 0;           ///< Shard the tenant's submissions route to.
  double load = 0.0;      ///< Estimated demand in its last active period.
  int last_active_period = -1;
  /// Period index of the tenant's last migration; the sentinel means
  /// never moved.
  int last_moved_period = std::numeric_limits<int>::min();
};

/// One planned migration.
struct TenantMove {
  auction::UserId user = 0;
  int from = 0;
  int to = 0;
  double load = 0.0;  ///< The signal load the planner shifted.
};

/// The planner's decision for one period boundary, including the
/// pressure diagnostics even when no move cleared the hysteresis.
struct MigrationPlan {
  int period = 0;       ///< Completed periods when planned.
  int hot_shard = -1;   ///< Highest demand/capacity shard (-1: no data).
  int cold_shard = -1;  ///< Lowest demand/capacity shard (-1: no data).
  double hot_pressure = 0.0;
  double cold_pressure = 0.0;
  std::vector<TenantMove> moves;
};

/// Stateless migration planner (const after construction); the owner
/// feeds it signals and applies the plan.
class ShardRebalancer {
 public:
  /// Preconditions (checked): num_shards >= 1; when enabled,
  /// max_moves_per_period >= 1 and tenant_cooldown_periods >= 0.
  ShardRebalancer(const RebalancerOptions& options, int num_shards);

  /// Plans the migrations to apply before the next period.
  /// `completed_periods` counts finished periods; `statuses` is the
  /// router's per-shard view (size num_shards, refreshed at the period
  /// close); `last_reports` is the latest period's per-shard reports
  /// (size num_shards, or empty before any period); `tenants` carries
  /// one signal per known tenant in any order (the planner sorts).
  /// Pure function of the arguments and (options, seed).
  MigrationPlan Plan(int completed_periods,
                     const std::vector<ShardStatus>& statuses,
                     const std::vector<cloud::PeriodReport>& last_reports,
                     std::vector<TenantSignal> tenants) const;

  const RebalancerOptions& options() const { return options_; }
  int num_shards() const { return num_shards_; }

 private:
  RebalancerOptions options_;
  int num_shards_;
};

}  // namespace streambid::cluster

#endif  // STREAMBID_CLUSTER_SHARD_REBALANCER_H_
