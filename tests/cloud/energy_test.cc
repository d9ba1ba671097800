// Copyright 2026 The streambid Authors
// The §VII energy extension: "it might be more profitable not to fully
// utilize the available capacity".

#include "cloud/energy.h"

#include <gtest/gtest.h>

#include <limits>

#include "service/admission_service.h"
#include "workload/generator.h"

namespace streambid::cloud {
namespace {

auction::AuctionInstance SharedWorkload(uint64_t seed) {
  workload::WorkloadParams p;
  p.num_queries = 100;
  p.base_num_operators = 40;
  p.base_max_sharing = 10;
  Rng rng(seed);
  auto inst = workload::GenerateBaseWorkload(p, rng).ToInstance();
  EXPECT_TRUE(inst.ok());
  return std::move(inst).value();
}

TEST(EnergyModelTest, CostGrowsWithCapacityAndUse) {
  EnergyModel model;
  EXPECT_GT(model.PeriodCost(100.0, 0.0), 0.0);  // Idle cost.
  EXPECT_GT(model.PeriodCost(100.0, 50.0), model.PeriodCost(100.0, 0.0));
  EXPECT_GT(model.PeriodCost(200.0, 50.0), model.PeriodCost(100.0, 50.0));
}

TEST(EnergyTest, EvaluatesEveryCandidate) {
  const auction::AuctionInstance inst = SharedWorkload(1);
  service::AdmissionService service;
  const uint64_t seed = 1;
  const std::vector<double> candidates = {
      inst.total_union_load() * 0.25, inst.total_union_load() * 0.5,
      inst.total_union_load() * 1.0};
  const auto evals = EvaluateCapacities(service, "cat", inst, candidates,
                                        EnergyModel{}, seed);
  ASSERT_TRUE(evals.ok());
  ASSERT_EQ(evals->size(), 3u);
  for (const CapacityEvaluation& e : *evals) {
    EXPECT_GE(e.gross_profit, 0.0);
    EXPECT_GE(e.energy_cost, 0.0);
    EXPECT_DOUBLE_EQ(e.net_profit, e.gross_profit - e.energy_cost);
    EXPECT_GE(e.utilization, 0.0);
    EXPECT_LE(e.utilization, 1.0 + 1e-9);
  }
}

TEST(EnergyTest, EvaluationOnPaperExample1) {
  // Paper Example 1: loads A=4 B=1 C=2 D=6 E=4; q1 {A,B} $55,
  // q2 {A,C} $72, q3 {D,E} $100. CAT at capacity 10 admits {q1, q2},
  // which use operators A, B and C: 4 + 1 + 2 = 7 units.
  const auction::AuctionInstance inst =
      auction::AuctionInstance::Create(
          {{4.0}, {1.0}, {2.0}, {6.0}, {4.0}},
          {{1, 55.0, {0, 1}}, {2, 72.0, {0, 2}}, {3, 100.0, {3, 4}}})
          .value();
  service::AdmissionService service;
  const auto evals =
      EvaluateCapacities(service, "cat", inst, {10.0}, EnergyModel{});
  ASSERT_TRUE(evals.ok());
  ASSERT_EQ(evals->size(), 1u);
  const CapacityEvaluation& e = (*evals)[0];
  EXPECT_DOUBLE_EQ(e.capacity, 10.0);
  EXPECT_EQ(e.admitted, 2);
  EXPECT_DOUBLE_EQ(e.gross_profit, 110.0);
  EXPECT_DOUBLE_EQ(e.utilization, 0.7);
  EXPECT_DOUBLE_EQ(e.energy_cost, EnergyModel{}.PeriodCost(10.0, 7.0));
  EXPECT_DOUBLE_EQ(e.net_profit, 110.0 - e.energy_cost);
}

TEST(EnergyTest, OptimizePicksBestNet) {
  const auction::AuctionInstance inst = SharedWorkload(2);
  service::AdmissionService service;
  const uint64_t seed = 2;
  const std::vector<double> candidates = {
      inst.total_union_load() * 0.2, inst.total_union_load() * 0.4,
      inst.total_union_load() * 0.7, inst.total_union_load() * 1.1};
  const auto best =
      OptimizeCapacity(service, "cat", inst, candidates, EnergyModel{}, seed);
  ASSERT_TRUE(best.ok());
  const auto evals = EvaluateCapacities(service, "cat", inst, candidates,
                                        EnergyModel{}, seed);
  ASSERT_TRUE(evals.ok());
  for (const CapacityEvaluation& e : *evals) {
    EXPECT_GE(best->net_profit, e.net_profit - 1e-9);
  }
}

TEST(EnergyTest, OverProvisioningIsPenalized) {
  // With everything admitted (capacity far above demand), density
  // mechanisms charge 0 but energy still costs: net < 0, so the
  // optimizer must prefer a tighter capacity.
  const auction::AuctionInstance inst = SharedWorkload(3);
  service::AdmissionService service;
  const uint64_t seed = 3;
  EnergyModel pricey;
  pricey.idle_cost_per_capacity = 0.01;
  const std::vector<double> candidates = {inst.total_union_load() * 0.5,
                                          inst.total_union_load() * 10.0};
  const auto best =
      OptimizeCapacity(service, "cat", inst, candidates, pricey, seed);
  ASSERT_TRUE(best.ok());
  EXPECT_DOUBLE_EQ(best->capacity, inst.total_union_load() * 0.5);
}

TEST(EnergyTest, TiesGoToSmallerCapacity) {
  // Zero-profit regime: all candidates yield profit 0; lower capacity
  // burns less energy and must win.
  std::vector<auction::OperatorSpec> ops = {{1.0}};
  std::vector<auction::QuerySpec> queries = {{0, 10.0, {0}}};
  auto inst = auction::AuctionInstance::Create(ops, queries);
  ASSERT_TRUE(inst.ok());
  service::AdmissionService service;
  const uint64_t seed = 4;
  const auto best =
      OptimizeCapacity(service, "cat", *inst, {100.0, 10.0}, EnergyModel{}, seed);
  ASSERT_TRUE(best.ok());
  EXPECT_DOUBLE_EQ(best->capacity, 10.0);
}

// --- Edge-case regressions: malformed candidate lists must fail with a
// clean Status, not silently evaluate (or crash). ---

TEST(EnergyTest, EmptyCandidateListIsInvalid) {
  const auction::AuctionInstance inst = SharedWorkload(5);
  service::AdmissionService service;
  const auto evals =
      EvaluateCapacities(service, "cat", inst, {}, EnergyModel{});
  EXPECT_EQ(evals.status().code(), StatusCode::kInvalidArgument);
  const auto best = OptimizeCapacity(service, "cat", inst, {}, EnergyModel{});
  EXPECT_EQ(best.status().code(), StatusCode::kInvalidArgument);
}

TEST(EnergyTest, ZeroAndNegativeCandidatesAreInvalid) {
  const auction::AuctionInstance inst = SharedWorkload(6);
  service::AdmissionService service;
  for (const double bad : {0.0, -5.0}) {
    const auto evals = EvaluateCapacities(service, "cat", inst,
                                          {10.0, bad}, EnergyModel{});
    EXPECT_EQ(evals.status().code(), StatusCode::kInvalidArgument) << bad;
    const auto best =
        OptimizeCapacity(service, "cat", inst, {bad}, EnergyModel{});
    EXPECT_EQ(best.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(EnergyTest, NonFiniteCandidatesAreInvalid) {
  const auction::AuctionInstance inst = SharedWorkload(7);
  service::AdmissionService service;
  const auto evals = EvaluateCapacities(
      service, "cat", inst, {std::numeric_limits<double>::infinity()},
      EnergyModel{});
  EXPECT_EQ(evals.status().code(), StatusCode::kInvalidArgument);
}

TEST(EnergyTest, NonPositiveTrialsAreInvalid) {
  const auction::AuctionInstance inst = SharedWorkload(8);
  service::AdmissionService service;
  const auto evals = EvaluateCapacities(service, "cat", inst, {10.0},
                                        EnergyModel{}, /*seed=*/0,
                                        /*trials=*/0);
  EXPECT_EQ(evals.status().code(), StatusCode::kInvalidArgument);
}

TEST(EnergyTest, UnknownMechanismPropagates) {
  const auction::AuctionInstance inst = SharedWorkload(9);
  service::AdmissionService service;
  const auto evals = EvaluateCapacities(service, "no-such-mechanism",
                                        inst, {10.0}, EnergyModel{});
  EXPECT_EQ(evals.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace streambid::cloud
