// Copyright 2026 The streambid Authors
// CapacityAutoscaler unit behavior: demand tracking, hysteresis, idle
// shrink, error hygiene, and the DsmsCenter closed-loop wiring.

#include "cloud/autoscaler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cloud/dsms_center.h"
#include "service/admission_service.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"
#include "workload/generator.h"

namespace streambid::cloud {
namespace {

auction::AuctionInstance SharedWorkload(uint64_t seed) {
  workload::WorkloadParams p;
  p.num_queries = 60;
  p.base_num_operators = 24;
  p.base_max_sharing = 8;
  Rng rng(seed);
  auto inst = workload::GenerateBaseWorkload(p, rng).ToInstance();
  EXPECT_TRUE(inst.ok());
  return std::move(inst).value();
}

AutoscalerOptions FastOptions() {
  AutoscalerOptions options;
  options.enabled = true;
  options.min_capacity_ratio = 0.25;
  options.min_dwell_periods = 1;  // Most tests exercise single steps.
  options.max_step_ratio = 0.5;
  return options;
}

TEST(CapacityAutoscalerTest, StartsAtBaselineClampedIntoBounds) {
  AutoscalerOptions options = FastOptions();
  CapacityAutoscaler scaler(options, 100.0);
  EXPECT_DOUBLE_EQ(scaler.capacity(), 100.0);
  EXPECT_DOUBLE_EQ(scaler.min_capacity(), 25.0);
  EXPECT_DOUBLE_EQ(scaler.max_capacity(), 100.0);
}

TEST(CapacityAutoscalerTest, ObserveWindowRolls) {
  CapacityAutoscaler scaler(FastOptions(), 10.0);
  for (int i = 0; i < 6; ++i) {
    PeriodObservation obs;
    obs.provisioned_capacity = 10.0;
    obs.measured_utilization = 0.1 * (i + 1);
    scaler.Observe(obs);
  }
  ASSERT_EQ(scaler.window().size(), 4u);
  // Oldest two rolled out: the window holds utilizations .3 through .6.
  EXPECT_DOUBLE_EQ(scaler.window().front().measured_utilization, 0.3);
  EXPECT_DOUBLE_EQ(scaler.window().back().measured_utilization, 0.6);
  EXPECT_DOUBLE_EQ(scaler.DemandEstimate(), 4.5);  // mean(3,4,5,6).
}

TEST(CapacityAutoscalerTest, DemandEstimateCorrectsForShedding) {
  CapacityAutoscaler scaler(FastOptions(), 10.0);
  PeriodObservation obs;
  obs.provisioned_capacity = 10.0;
  obs.measured_utilization = 0.5;
  obs.shed_fraction = 0.5;  // Half the arrivals were dropped.
  scaler.Observe(obs);
  EXPECT_DOUBLE_EQ(scaler.DemandEstimate(), 10.0);  // 5 / (1 - .5).
}

TEST(CapacityAutoscalerTest, DemandEstimateTakesMaxOfEngineAndAuction) {
  CapacityAutoscaler scaler(FastOptions(), 10.0);
  PeriodObservation obs;
  obs.provisioned_capacity = 10.0;
  obs.measured_utilization = 0.2;
  obs.auction_utilization = 0.7;  // The auction saw more demand.
  scaler.Observe(obs);
  EXPECT_DOUBLE_EQ(scaler.DemandEstimate(), 7.0);
}

TEST(CapacityAutoscalerTest, EmptyWindowEstimatesCurrentCapacity) {
  CapacityAutoscaler scaler(FastOptions(), 10.0);
  EXPECT_DOUBLE_EQ(scaler.DemandEstimate(), 10.0);
}

TEST(CapacityAutoscalerTest, IdlePeriodsShrinkTowardMinimumAtStepRate) {
  service::AdmissionService service;
  CapacityAutoscaler scaler(FastOptions(), 100.0);
  // No upcoming auction: each decision shrinks by the step ratio until
  // the lower bound, never below.
  double expected = 100.0;
  for (int i = 0; i < 5; ++i) {
    const auto decision = scaler.Propose(service, "cat", nullptr, 1);
    ASSERT_TRUE(decision.ok());
    expected = std::max(scaler.min_capacity(), expected * 0.5);
    EXPECT_EQ(decision->reason, "idle");
    EXPECT_FALSE(decision->evaluated);
    EXPECT_DOUBLE_EQ(decision->capacity, expected);
    EXPECT_DOUBLE_EQ(scaler.capacity(), expected);
  }
  EXPECT_DOUBLE_EQ(scaler.capacity(), scaler.min_capacity());
}

TEST(CapacityAutoscalerTest, DwellHoldsCapacityBetweenChanges) {
  service::AdmissionService service;
  AutoscalerOptions options = FastOptions();
  options.min_dwell_periods = 3;
  CapacityAutoscaler scaler(options, 100.0);
  // First decision is free (the initial capacity never served a
  // period): the idle shrink fires.
  auto d0 = scaler.Propose(service, "cat", nullptr, 1);
  ASSERT_TRUE(d0.ok());
  EXPECT_TRUE(d0->changed);
  EXPECT_DOUBLE_EQ(d0->capacity, 50.0);
  // The new capacity must now serve min_dwell_periods periods.
  for (int i = 0; i < 2; ++i) {
    auto d = scaler.Propose(service, "cat", nullptr, 1);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->reason, "dwell") << i;
    EXPECT_FALSE(d->changed);
    EXPECT_DOUBLE_EQ(d->capacity, 50.0);
  }
  auto d3 = scaler.Propose(service, "cat", nullptr, 1);
  ASSERT_TRUE(d3.ok());
  EXPECT_TRUE(d3->changed);
  EXPECT_DOUBLE_EQ(d3->capacity, 25.0);  // == min bound.
}

TEST(CapacityAutoscalerTest, OptimizedDecisionStaysWithinStepAndBounds) {
  service::AdmissionService service;
  const auction::AuctionInstance inst = SharedWorkload(11);
  AutoscalerOptions options = FastOptions();
  CapacityAutoscaler scaler(options, inst.total_union_load());
  const double before = scaler.capacity();
  const auto decision = scaler.Propose(service, "cat", &inst, 7);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->evaluated);
  EXPECT_EQ(decision->reason, "optimized");
  EXPECT_GE(decision->capacity, scaler.min_capacity());
  EXPECT_LE(decision->capacity, scaler.max_capacity());
  EXPECT_GE(decision->capacity, before * (1.0 - options.max_step_ratio));
  EXPECT_LE(decision->capacity, before * (1.0 + options.max_step_ratio));
  EXPECT_DOUBLE_EQ(decision->previous_capacity, before);
  EXPECT_DOUBLE_EQ(scaler.capacity(), decision->capacity);
}

TEST(CapacityAutoscalerTest, GrowsBackAfterShrinkWhenDemandReturns) {
  service::AdmissionService service;
  const auction::AuctionInstance inst = SharedWorkload(12);
  const double demand = inst.total_union_load();
  AutoscalerOptions options = FastOptions();
  options.min_capacity_ratio = 0.1;
  CapacityAutoscaler scaler(options, demand);
  // Idle periods shrink to the floor...
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(scaler.Propose(service, "cat", nullptr, 1).ok());
  }
  ASSERT_DOUBLE_EQ(scaler.capacity(), scaler.min_capacity());
  // ...then sustained demand (observations near saturation + a real
  // instance) walks capacity back up, one bounded step at a time.
  double previous = scaler.capacity();
  bool grew = false;
  for (int i = 0; i < 10; ++i) {
    PeriodObservation obs;
    obs.provisioned_capacity = scaler.capacity();
    obs.measured_utilization = 1.0;
    obs.auction_utilization = 1.0;
    scaler.Observe(obs);
    const auto decision = scaler.Propose(service, "cat", &inst, 5);
    ASSERT_TRUE(decision.ok());
    EXPECT_LE(decision->capacity,
              previous * (1.0 + options.max_step_ratio) + 1e-12);
    grew = grew || decision->capacity > previous;
    previous = decision->capacity;
  }
  EXPECT_TRUE(grew);
  EXPECT_GT(scaler.capacity(), scaler.min_capacity());
}

TEST(CapacityAutoscalerTest, EvaluationErrorsPropagateWithoutMutation) {
  service::AdmissionService service;
  const auction::AuctionInstance inst = SharedWorkload(13);
  CapacityAutoscaler scaler(FastOptions(), 50.0);
  const auto decision =
      scaler.Propose(service, "no-such-mechanism", &inst, 1);
  EXPECT_EQ(decision.status().code(), StatusCode::kNotFound);
  EXPECT_DOUBLE_EQ(scaler.capacity(), 50.0);
  // The failed call did not consume a decision slot: the next valid
  // call is still decision 0.
  const auto ok = scaler.Propose(service, "cat", &inst, 1);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->period, 0);
}

TEST(CapacityAutoscalerTest, EvaluationSeedIsSaltedAndPeriodDistinct) {
  const uint64_t a = CapacityAutoscaler::EvaluationSeed(1, 0);
  const uint64_t b = CapacityAutoscaler::EvaluationSeed(1, 1);
  const uint64_t c = CapacityAutoscaler::EvaluationSeed(2, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, 1u);  // Not the raw center seed.
}

// --- DsmsCenter closed-loop wiring. ----------------------------------

class AutoscaledCenterTest : public ::testing::Test {
 protected:
  AutoscaledCenterTest() : engine_(stream::EngineOptions{4.0, 1.0, 8}) {
    EXPECT_TRUE(engine_
                    .RegisterSource(stream::MakeStockQuoteSource(
                        "quotes", {"IBM", "AAPL", "MSFT"}, 100.0, 11))
                    .ok());
  }

  stream::QuerySubmission MakeSubmission(int id, auction::UserId user,
                                         double bid, double threshold) {
    stream::QueryBuilder b;
    const int src = b.Source("quotes");
    const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                             stream::Value(threshold));
    stream::QuerySubmission sub;
    sub.query_id = id;
    sub.user = user;
    sub.bid = bid;
    sub.plan = b.Build(sel);
    return sub;
  }

  DsmsCenterOptions AutoscaledOptions() {
    DsmsCenterOptions options;
    options.mechanism = "cat";
    options.period_length = 5.0;
    options.autoscale.enabled = true;
    options.autoscale.min_dwell_periods = 1;
    return options;
  }

  stream::Engine engine_;
};

TEST_F(AutoscaledCenterTest, ReportsCarryDecisionAndProvisioning) {
  DsmsCenter center(AutoscaledOptions(), &engine_);
  ASSERT_NE(center.autoscaler(), nullptr);
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 1, 50.0, 110.0)).ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(2, 2, 40.0, 120.0)).ok());
  const auto report = center.RunPeriod();
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->autoscale_decision.has_value());
  const AutoscaleDecision& decision = *report->autoscale_decision;
  EXPECT_EQ(decision.period, 0);
  EXPECT_DOUBLE_EQ(decision.previous_capacity, 4.0);
  EXPECT_DOUBLE_EQ(report->provisioned_capacity, decision.capacity);
  EXPECT_DOUBLE_EQ(engine_.options().capacity, decision.capacity);
  EXPECT_GT(report->energy_cost, 0.0);
}

TEST_F(AutoscaledCenterTest, IdlePeriodShrinksProvisioning) {
  DsmsCenter center(AutoscaledOptions(), &engine_);
  const auto report = center.RunPeriod();  // No submissions.
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->autoscale_decision.has_value());
  EXPECT_EQ(report->autoscale_decision->reason, "idle");
  EXPECT_LT(report->provisioned_capacity, 4.0);
  EXPECT_DOUBLE_EQ(engine_.options().capacity,
                   report->provisioned_capacity);
}

TEST_F(AutoscaledCenterTest, DisabledAutoscaleLeavesCapacityAlone) {
  DsmsCenterOptions options;
  options.mechanism = "cat";
  options.period_length = 5.0;
  DsmsCenter center(options, &engine_);
  EXPECT_EQ(center.autoscaler(), nullptr);
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 1, 50.0, 110.0)).ok());
  const auto report = center.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->autoscale_decision.has_value());
  EXPECT_DOUBLE_EQ(report->provisioned_capacity, 4.0);
  EXPECT_DOUBLE_EQ(engine_.options().capacity, 4.0);
  // Energy is still priced so fixed-vs-autoscaled nets compare.
  EXPECT_GT(report->energy_cost, 0.0);
}

TEST_F(AutoscaledCenterTest, PreparedRequestUsesDecidedCapacity) {
  DsmsCenter center(AutoscaledOptions(), &engine_);
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 1, 50.0, 110.0)).ok());
  auto prepared = center.PrepareAuction();
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->has_auction);
  EXPECT_DOUBLE_EQ(prepared->request.capacity,
                   engine_.options().capacity);
  EXPECT_DOUBLE_EQ(prepared->request.capacity,
                   center.autoscaler()->capacity());
}

}  // namespace
}  // namespace streambid::cloud
