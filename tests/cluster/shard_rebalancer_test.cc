// Copyright 2026 The streambid Authors
// ShardRebalancer planning: hot/cold selection, the hysteresis gates
// (oversubscription, rejected work, pressure gap, cooldown), the
// per-period move bound, the no-inversion rule, and determinism of the
// plan under input reordering.

#include "cluster/shard_rebalancer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace streambid::cluster {
namespace {

RebalancerOptions EnabledOptions() {
  RebalancerOptions options;
  options.enabled = true;
  options.max_moves_per_period = 2;
  options.min_history_periods = 2;
  options.tenant_cooldown_periods = 3;
  return options;
}

/// Two shards at capacity 2 each; the hot shard rejected work last
/// period. The canonical planning scenario every test perturbs.
struct Scenario {
  std::vector<ShardStatus> statuses;
  std::vector<cloud::PeriodReport> last_reports;
  std::vector<TenantSignal> tenants;
  int completed_periods = 4;
};

TenantSignal Tenant(auction::UserId user, int home, double load,
                    int last_active) {
  TenantSignal t;
  t.user = user;
  t.home = home;
  t.load = load;
  t.last_active_period = last_active;
  return t;
}

Scenario HotColdScenario() {
  Scenario s;
  s.statuses.resize(2);
  s.statuses[0].next_capacity = 2.0;
  s.statuses[1].next_capacity = 2.0;
  s.last_reports.resize(2);
  s.last_reports[0].submissions = 5;
  s.last_reports[0].admitted = 2;  // Shard 0 rejected work.
  s.last_reports[1].submissions = 1;
  s.last_reports[1].admitted = 1;
  // Shard 0: 5 units of demand on 2 of capacity; shard 1: 0.5 on 2.
  s.tenants = {Tenant(1, 0, 1.5, 3), Tenant(2, 0, 1.2, 3),
               Tenant(3, 0, 1.0, 3), Tenant(4, 0, 0.8, 3),
               Tenant(5, 0, 0.5, 3), Tenant(6, 1, 0.5, 3)};
  return s;
}

TEST(ShardRebalancerTest, DisabledPlansNothing) {
  ShardRebalancer rebalancer(RebalancerOptions{}, 2);
  const Scenario s = HotColdScenario();
  const MigrationPlan plan = rebalancer.Plan(
      s.completed_periods, s.statuses, s.last_reports, s.tenants);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_EQ(plan.hot_shard, -1);
}

TEST(ShardRebalancerTest, WaitsForHistory) {
  ShardRebalancer rebalancer(EnabledOptions(), 2);
  const Scenario s = HotColdScenario();
  EXPECT_TRUE(rebalancer.Plan(1, s.statuses, s.last_reports, s.tenants)
                  .moves.empty());
  EXPECT_FALSE(rebalancer.Plan(2, s.statuses, s.last_reports, s.tenants)
                   .moves.empty());
}

TEST(ShardRebalancerTest, MovesHeaviestTenantsHotToCold) {
  ShardRebalancer rebalancer(EnabledOptions(), 2);
  const Scenario s = HotColdScenario();
  const MigrationPlan plan = rebalancer.Plan(
      s.completed_periods, s.statuses, s.last_reports, s.tenants);
  EXPECT_EQ(plan.hot_shard, 0);
  EXPECT_EQ(plan.cold_shard, 1);
  EXPECT_DOUBLE_EQ(plan.hot_pressure, 2.5);
  EXPECT_DOUBLE_EQ(plan.cold_pressure, 0.25);
  // Bounded at max_moves_per_period, heaviest first. After the
  // 1.5-unit move (hot 3.5, cold 2.0) the 1.2/1.0/0.8 tenants would
  // each invert the imbalance and are skipped; the 0.5-unit one fits.
  ASSERT_EQ(plan.moves.size(), 2u);
  EXPECT_EQ(plan.moves[0].user, 1);
  EXPECT_DOUBLE_EQ(plan.moves[0].load, 1.5);
  EXPECT_EQ(plan.moves[1].user, 5);
  EXPECT_DOUBLE_EQ(plan.moves[1].load, 0.5);
  for (const TenantMove& move : plan.moves) {
    EXPECT_EQ(move.from, 0);
    EXPECT_EQ(move.to, 1);
  }
}

TEST(ShardRebalancerTest, PlanIsPureFunctionOfInputs) {
  ShardRebalancer rebalancer(EnabledOptions(), 2);
  Scenario s = HotColdScenario();
  const MigrationPlan first = rebalancer.Plan(
      s.completed_periods, s.statuses, s.last_reports, s.tenants);
  // Reversing the (hash-map-order-dependent) tenant vector must not
  // change the plan: the planner sorts internally.
  std::reverse(s.tenants.begin(), s.tenants.end());
  const MigrationPlan second = rebalancer.Plan(
      s.completed_periods, s.statuses, s.last_reports, s.tenants);
  ASSERT_EQ(first.moves.size(), second.moves.size());
  for (size_t k = 0; k < first.moves.size(); ++k) {
    EXPECT_EQ(first.moves[k].user, second.moves[k].user);
    EXPECT_EQ(first.moves[k].from, second.moves[k].from);
    EXPECT_EQ(first.moves[k].to, second.moves[k].to);
  }
}

TEST(ShardRebalancerTest, GapGateBlocksBalancedShards) {
  ShardRebalancer rebalancer(EnabledOptions(), 2);
  Scenario s = HotColdScenario();
  // Load the cold shard until the relative gap is inside the 25% band:
  // 2.5 vs 2.1 — imbalanced, but within hysteresis.
  s.tenants.push_back(Tenant(7, 1, 3.7, 3));
  const MigrationPlan plan = rebalancer.Plan(
      s.completed_periods, s.statuses, s.last_reports, s.tenants);
  EXPECT_DOUBLE_EQ(plan.hot_pressure, 2.5);
  EXPECT_DOUBLE_EQ(plan.cold_pressure, 2.1);
  EXPECT_TRUE(plan.moves.empty());
}

TEST(ShardRebalancerTest, UnderCapacityHotShardDoesNotShed) {
  ShardRebalancer rebalancer(EnabledOptions(), 2);
  Scenario s = HotColdScenario();
  // Same imbalance shape, but the hot shard fits its demand (pressure
  // <= 1): no revenue on the floor, no move.
  for (TenantSignal& t : s.tenants) t.load *= 0.3;
  const MigrationPlan plan = rebalancer.Plan(
      s.completed_periods, s.statuses, s.last_reports, s.tenants);
  EXPECT_LE(plan.hot_pressure, 1.0);
  EXPECT_TRUE(plan.moves.empty());
}

TEST(ShardRebalancerTest, RequiresRejectedWorkLastPeriod) {
  ShardRebalancer rebalancer(EnabledOptions(), 2);
  Scenario s = HotColdScenario();
  // The load estimates scream hot, but the auction admitted everything
  // last period: estimates alone must not trigger churn.
  s.last_reports[0].admitted = s.last_reports[0].submissions;
  const MigrationPlan plan = rebalancer.Plan(
      s.completed_periods, s.statuses, s.last_reports, s.tenants);
  EXPECT_TRUE(plan.moves.empty());
}

TEST(ShardRebalancerTest, CooldownPinsRecentlyMovedTenants) {
  ShardRebalancer rebalancer(EnabledOptions(), 2);
  Scenario s = HotColdScenario();
  // Tenants 1 and 2 moved last period (cooldown 3): the plan must fall
  // through to the next heaviest movable tenants.
  s.tenants[0].last_moved_period = s.completed_periods - 1;
  s.tenants[1].last_moved_period = s.completed_periods - 1;
  const MigrationPlan plan = rebalancer.Plan(
      s.completed_periods, s.statuses, s.last_reports, s.tenants);
  ASSERT_EQ(plan.moves.size(), 2u);
  EXPECT_EQ(plan.moves[0].user, 3);
  EXPECT_EQ(plan.moves[1].user, 4);
}

TEST(ShardRebalancerTest, MoveNeverInvertsTheImbalance) {
  RebalancerOptions options = EnabledOptions();
  options.max_moves_per_period = 10;
  ShardRebalancer rebalancer(options, 2);
  Scenario s = HotColdScenario();
  const MigrationPlan plan = rebalancer.Plan(
      s.completed_periods, s.statuses, s.last_reports, s.tenants);
  ASSERT_FALSE(plan.moves.empty());
  double hot = 5.0, cold = 0.5;  // Scenario demand.
  for (const TenantMove& move : plan.moves) {
    hot -= move.load;
    cold += move.load;
    // After every committed move the destination stays strictly less
    // pressured than the source (equal capacities: compare demand).
    EXPECT_LT(cold, hot);
  }
  // A tenant whose load would flip the imbalance (e.g. the 1.5-unit
  // one once the gap is narrow) is skipped, not force-moved.
  EXPECT_LT(plan.moves.size(), 5u);
}

TEST(ShardRebalancerTest, InactiveTenantsNeitherLoadNorMove) {
  ShardRebalancer rebalancer(EnabledOptions(), 2);
  Scenario s = HotColdScenario();
  // Everybody on the hot shard went quiet longer ago than the signal
  // window: their stale loads must not drive migrations.
  for (TenantSignal& t : s.tenants) t.last_active_period = 0;
  const MigrationPlan plan = rebalancer.Plan(
      s.completed_periods, s.statuses, s.last_reports, s.tenants);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_DOUBLE_EQ(plan.hot_pressure, 0.0);
}

TEST(ShardRebalancerTest, SingleShardNeverPlans) {
  ShardRebalancer rebalancer(EnabledOptions(), 1);
  std::vector<ShardStatus> statuses(1);
  statuses[0].next_capacity = 1.0;
  const MigrationPlan plan =
      rebalancer.Plan(10, statuses, {}, {Tenant(1, 0, 5.0, 9)});
  EXPECT_TRUE(plan.moves.empty());
}

TEST(ShardRebalancerTest, SeedBreaksExactLoadTiesDeterministically) {
  RebalancerOptions options = EnabledOptions();
  options.max_moves_per_period = 1;
  Scenario s = HotColdScenario();
  // All hot tenants identical: the chosen one is a pure function of
  // the seed, stable across calls.
  for (TenantSignal& t : s.tenants) {
    if (t.home == 0) t.load = 1.2;
  }
  ShardRebalancer a(options, 2);
  const auction::UserId first =
      a.Plan(s.completed_periods, s.statuses, s.last_reports, s.tenants)
          .moves[0]
          .user;
  EXPECT_EQ(a.Plan(s.completed_periods, s.statuses, s.last_reports,
                   s.tenants)
                .moves[0]
                .user,
            first);
  options.seed = 99;
  ShardRebalancer b(options, 2);
  const MigrationPlan other = b.Plan(s.completed_periods, s.statuses,
                                     s.last_reports, s.tenants);
  ASSERT_EQ(other.moves.size(), 1u);  // Still bounded and valid.
}

}  // namespace
}  // namespace streambid::cluster
