// Copyright 2026 The streambid Authors
// Autoscaler invariants, checked over randomized multi-period runs:
//
//  1. capacity always stays within [min, max] bounds;
//  2. every step respects the max step ratio, and changed decisions are
//     at least min_dwell_periods apart (hysteresis);
//  3. a constant workload converges to a fixed point;
//  4. the decision sequence is a pure function of (history, seed):
//     an identically-driven replay is byte-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cloud/autoscaler.h"
#include "common/rng.h"
#include "service/admission_service.h"
#include "workload/generator.h"

namespace streambid::cloud {
namespace {

auction::AuctionInstance SharedWorkload(uint64_t seed, int queries) {
  workload::WorkloadParams p;
  p.num_queries = queries;
  p.base_num_operators = queries / 3;
  p.base_max_sharing = 8;
  Rng rng(seed);
  auto inst = workload::GenerateBaseWorkload(p, rng).ToInstance();
  EXPECT_TRUE(inst.ok());
  return std::move(inst).value();
}

/// One simulated period: the decision taken plus the observation the
/// controller was fed afterwards.
struct SimStep {
  AutoscaleDecision decision;
  bool idle = false;
};

/// Drives `periods` periods of a synthetic demand process: each period
/// is idle with probability ~1/4, otherwise auctions one of three
/// pre-built instances; the observation fed back assumes the engine
/// served min(demand, capacity). Everything is derived from `seed`.
std::vector<SimStep> Simulate(const AutoscalerOptions& options,
                              double baseline, uint64_t seed,
                              int periods) {
  service::AdmissionService service;
  const auction::AuctionInstance instances[3] = {
      SharedWorkload(seed * 3 + 1, 30), SharedWorkload(seed * 3 + 2, 60),
      SharedWorkload(seed * 3 + 3, 90)};
  CapacityAutoscaler scaler(options, baseline);
  Rng rng(seed);
  std::vector<SimStep> steps;
  for (int p = 0; p < periods; ++p) {
    SimStep step;
    const auction::AuctionInstance* instance = nullptr;
    double demand = 0.0;
    if (rng.NextBool(0.25)) {
      step.idle = true;
    } else {
      instance = &instances[rng.NextBounded(3)];
      demand = instance->total_union_load();
    }
    auto decision = scaler.Propose(service, "cat", instance, seed);
    EXPECT_TRUE(decision.ok());
    step.decision = *decision;

    PeriodObservation obs;
    obs.provisioned_capacity = decision->capacity;
    const double used = std::min(demand, decision->capacity);
    obs.measured_utilization =
        decision->capacity > 0.0 ? used / decision->capacity : 0.0;
    obs.auction_utilization = obs.measured_utilization;
    scaler.Observe(obs);
    steps.push_back(std::move(step));
  }
  return steps;
}

void ExpectDecisionsIdentical(const AutoscaleDecision& a,
                              const AutoscaleDecision& b) {
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.changed, b.changed);
  // Byte-identical doubles, not approximately equal.
  EXPECT_EQ(a.previous_capacity, b.previous_capacity);
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.demand_estimate, b.demand_estimate);
  EXPECT_EQ(a.expected_net_profit, b.expected_net_profit);
  EXPECT_EQ(a.reason, b.reason);
}

TEST(AutoscalerInvariantsTest, CapacityStaysWithinBoundsAndStepLimits) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    AutoscalerOptions options;
    options.enabled = true;
    options.min_capacity_ratio = 0.2;
    options.min_dwell_periods = 1 + static_cast<int>(seed % 3);
    options.max_step_ratio = 0.3 + 0.1 * static_cast<double>(seed % 2);
    const double baseline = 20.0 * static_cast<double>(seed);
    const auto steps = Simulate(options, baseline, seed, 24);
    ASSERT_EQ(steps.size(), 24u);
    const double lo = baseline * options.min_capacity_ratio;
    const double hi = baseline;
    for (const SimStep& step : steps) {
      const AutoscaleDecision& d = step.decision;
      EXPECT_GE(d.capacity, lo - 1e-12) << "seed " << seed;
      EXPECT_LE(d.capacity, hi + 1e-12) << "seed " << seed;
      EXPECT_GE(d.capacity,
                d.previous_capacity * (1.0 - options.max_step_ratio) -
                    1e-12)
          << "seed " << seed;
      EXPECT_LE(d.capacity,
                d.previous_capacity * (1.0 + options.max_step_ratio) +
                    1e-12)
          << "seed " << seed;
    }
  }
}

TEST(AutoscalerInvariantsTest, HysteresisDwellIsRespected) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    AutoscalerOptions options;
    options.enabled = true;
    options.min_dwell_periods = 3;
    const auto steps = Simulate(options, 50.0, seed, 30);
    int last_change = -options.min_dwell_periods;  // First change free.
    for (size_t p = 0; p < steps.size(); ++p) {
      const AutoscaleDecision& d = steps[p].decision;
      EXPECT_EQ(d.period, static_cast<int>(p));
      if (!d.changed) continue;
      EXPECT_GE(static_cast<int>(p) - last_change,
                options.min_dwell_periods)
          << "seed " << seed << " period " << p;
      last_change = static_cast<int>(p);
    }
  }
}

TEST(AutoscalerInvariantsTest, ConstantWorkloadConvergesToFixedPoint) {
  service::AdmissionService service;
  const auction::AuctionInstance inst = SharedWorkload(77, 60);
  const double demand = inst.total_union_load();
  AutoscalerOptions options;
  options.enabled = true;
  options.min_capacity_ratio = 0.1;
  options.min_dwell_periods = 1;
  CapacityAutoscaler scaler(options, demand);
  std::vector<double> capacities;
  for (int p = 0; p < 30; ++p) {
    const auto decision = scaler.Propose(service, "cat", &inst, 9);
    ASSERT_TRUE(decision.ok());
    PeriodObservation obs;
    obs.provisioned_capacity = decision->capacity;
    const double used = std::min(demand, decision->capacity);
    obs.measured_utilization = used / decision->capacity;
    obs.auction_utilization = obs.measured_utilization;
    scaler.Observe(obs);
    capacities.push_back(decision->capacity);
  }
  // The deterministic mechanism + the improvement hurdle make every
  // change a strict net-profit gain, so the walk must settle: the last
  // 10 periods hold one capacity.
  for (size_t p = capacities.size() - 10; p < capacities.size(); ++p) {
    EXPECT_EQ(capacities[p], capacities[capacities.size() - 1])
        << "period " << p;
  }
}

TEST(AutoscalerInvariantsTest, DecisionsReplayByteIdentically) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    AutoscalerOptions options;
    options.enabled = true;
    options.min_dwell_periods = 2;
    const auto first = Simulate(options, 64.0, seed, 20);
    const auto second = Simulate(options, 64.0, seed, 20);
    ASSERT_EQ(first.size(), second.size());
    for (size_t p = 0; p < first.size(); ++p) {
      EXPECT_EQ(first[p].idle, second[p].idle) << "period " << p;
      ExpectDecisionsIdentical(first[p].decision, second[p].decision);
    }
  }
}

}  // namespace
}  // namespace streambid::cloud
