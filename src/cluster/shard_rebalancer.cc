// Copyright 2026 The streambid Authors

#include "cluster/shard_rebalancer.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace streambid::cluster {

namespace {

/// Required relative pressure gap: the hot shard's demand/capacity must
/// exceed the cold shard's by this fraction before any move.
constexpr double kMinPressureGap = 0.25;

}  // namespace

ShardRebalancer::ShardRebalancer(const RebalancerOptions& options,
                                 int num_shards)
    : options_(options), num_shards_(num_shards) {
  STREAMBID_CHECK_GE(num_shards, 1);
  if (options.enabled) {
    STREAMBID_CHECK_GE(options.max_moves_per_period, 1);
    STREAMBID_CHECK_GE(options.tenant_cooldown_periods, 0);
  }
}

MigrationPlan ShardRebalancer::Plan(
    int completed_periods, const std::vector<ShardStatus>& statuses,
    const std::vector<cloud::PeriodReport>& last_reports,
    std::vector<TenantSignal> tenants) const {
  MigrationPlan plan;
  plan.period = completed_periods;
  if (!options_.enabled || num_shards_ < 2 ||
      completed_periods < options_.min_history_periods) {
    return plan;
  }
  STREAMBID_CHECK_EQ(static_cast<int>(statuses.size()), num_shards_);
  if (!last_reports.empty()) {
    STREAMBID_CHECK_EQ(static_cast<int>(last_reports.size()),
                       num_shards_);
  }

  // Deterministic tenant order regardless of how the owner's hash map
  // iterated: by user id (ids are unique).
  std::sort(tenants.begin(), tenants.end(),
            [](const TenantSignal& a, const TenantSignal& b) {
              return a.user < b.user;
            });

  // A tenant counts toward its shard's demand while it was active
  // within the signal window; an inactive tenant neither loads its
  // shard nor gets moved.
  const int active_floor = completed_periods - options_.min_history_periods;
  const auto is_active = [&](const TenantSignal& t) {
    return t.load > 0.0 && t.last_active_period >= active_floor;
  };

  std::vector<double> demand(static_cast<size_t>(num_shards_), 0.0);
  for (const TenantSignal& tenant : tenants) {
    if (tenant.home < 0 || tenant.home >= num_shards_) continue;
    if (is_active(tenant)) {
      demand[static_cast<size_t>(tenant.home)] += tenant.load;
    }
  }

  // Pressure = recent demand relative to next-period capacity (the
  // same measure as least-loaded routing).
  const auto capacity_of = [&](int s) {
    return statuses[static_cast<size_t>(s)].next_capacity;
  };
  int hot = 0, cold = 0;
  double hot_pressure = demand[0] / capacity_of(0);
  double cold_pressure = hot_pressure;
  for (int s = 1; s < num_shards_; ++s) {
    const double pressure = demand[static_cast<size_t>(s)] / capacity_of(s);
    // Strict >/<: ties stay on the lowest index (deterministic).
    if (pressure > hot_pressure) {
      hot = s;
      hot_pressure = pressure;
    }
    if (pressure < cold_pressure) {
      cold = s;
      cold_pressure = pressure;
    }
  }
  plan.hot_shard = hot;
  plan.cold_shard = cold;
  plan.hot_pressure = hot_pressure;
  plan.cold_pressure = cold_pressure;
  if (hot == cold) return plan;

  // Hysteresis gates: the hot shard must be oversubscribed (demand
  // above its capacity), must actually have rejected work last period
  // (revenue on the floor, not just an estimate artifact), and the
  // hot/cold gap must be wide enough to be signal.
  if (hot_pressure <= 1.0) return plan;
  if (hot_pressure <= cold_pressure * (1.0 + kMinPressureGap)) return plan;
  if (!last_reports.empty()) {
    const cloud::PeriodReport& hot_report =
        last_reports[static_cast<size_t>(hot)];
    if (hot_report.admitted >= hot_report.submissions) return plan;
  }

  // Movable tenants on the hot shard, heaviest first so each move
  // relieves the most pressure; exact load ties break on a seeded hash
  // (then user id) so equal tenants do not always bias toward low ids.
  std::vector<const TenantSignal*> movable;
  for (const TenantSignal& tenant : tenants) {
    if (tenant.home != hot || !is_active(tenant)) continue;
    // 64-bit: the never-moved sentinel is INT_MIN and must not
    // overflow the subtraction.
    if (static_cast<int64_t>(completed_periods) -
            static_cast<int64_t>(tenant.last_moved_period) <
        options_.tenant_cooldown_periods) {
      continue;
    }
    movable.push_back(&tenant);
  }
  const auto tie_break = [this](auction::UserId user) {
    return Mix64(static_cast<uint64_t>(static_cast<int64_t>(user)) ^
                 options_.seed);
  };
  std::sort(movable.begin(), movable.end(),
            [&](const TenantSignal* a, const TenantSignal* b) {
              if (a->load != b->load) return a->load > b->load;
              const uint64_t ha = tie_break(a->user);
              const uint64_t hb = tie_break(b->user);
              if (ha != hb) return ha < hb;
              return a->user < b->user;
            });

  double hot_demand = demand[static_cast<size_t>(hot)];
  double cold_demand = demand[static_cast<size_t>(cold)];
  const double hot_capacity = capacity_of(hot);
  const double cold_capacity = capacity_of(cold);
  for (const TenantSignal* tenant : movable) {
    if (static_cast<int>(plan.moves.size()) >=
        options_.max_moves_per_period) {
      break;
    }
    // Anti-thrash: after the move the destination must stay strictly
    // less pressured than the source — the imbalance narrows, it never
    // inverts, so the reverse move can never clear the gap gate next
    // period on the same demand.
    const double hot_after = (hot_demand - tenant->load) / hot_capacity;
    const double cold_after = (cold_demand + tenant->load) / cold_capacity;
    if (cold_after >= hot_after) continue;
    plan.moves.push_back(
        TenantMove{tenant->user, hot, cold, tenant->load});
    hot_demand -= tenant->load;
    cold_demand += tenant->load;
  }
  return plan;
}

}  // namespace streambid::cluster
