// Copyright 2026 The streambid Authors
// Integration: the full §II loop — submissions with shared plans ->
// load estimation -> auction instance -> mechanism -> installation ->
// execution -> measured loads feed the next auction.

#include <gtest/gtest.h>

#include "auction/metrics.h"
#include "service/admission_service.h"
#include "stream/load_estimator.h"
#include "stream/query_builder.h"

namespace streambid {
namespace {

using stream::CompareOp;
using stream::Engine;
using stream::EngineOptions;
using stream::QueryBuilder;
using stream::QuerySubmission;
using stream::Value;

class AuctionEngineTest : public ::testing::Test {
 protected:
  AuctionEngineTest() : engine_(EngineOptions{3.0, 1.0, 8}) {
    EXPECT_TRUE(engine_
                    .RegisterSource(stream::MakeStockQuoteSource(
                        "quotes", {"IBM", "AAPL", "MSFT", "GOOG"}, 100.0,
                        21))
                    .ok());
    EXPECT_TRUE(engine_
                    .RegisterSource(stream::MakeNewsSource(
                        "news", {"IBM", "AAPL", "MSFT", "GOOG"}, 0.6,
                        20.0, 22))
                    .ok());
  }

  QuerySubmission SelectSub(int id, double bid, double threshold) {
    QueryBuilder b;
    const int src = b.Source("quotes");
    const int sel =
        b.Select(src, "price", CompareOp::kGt, Value(threshold));
    QuerySubmission sub;
    sub.query_id = id;
    sub.user = id;
    sub.bid = bid;
    sub.plan = b.Build(sel);
    return sub;
  }

  static service::AdmissionRequest MakeRequest(
      const auction::AuctionInstance& instance,
      const std::string& mechanism, double capacity, uint64_t seed) {
    service::AdmissionRequest request;
    request.instance = &instance;
    request.capacity = capacity;
    request.mechanism = mechanism;
    request.seed = seed;
    request.options.check_feasibility = true;
    return request;
  }

  Engine engine_;
  service::AdmissionService service_;
};

TEST_F(AuctionEngineTest, SharingLetsMoreQueriesFit) {
  // Five users submit the SAME select (one shared ~1-unit operator)
  // plus one user with a distinct select. Capacity 3 admits all six
  // under sharing; without sharing only ~3 would fit.
  std::vector<QuerySubmission> subs;
  for (int i = 0; i < 5; ++i) {
    subs.push_back(SelectSub(i, 50.0 - i, 150.0));
  }
  subs.push_back(SelectSub(99, 45.0, 60.0));

  auto build = stream::BuildAuctionInstance(engine_, subs, {});
  ASSERT_TRUE(build.ok());
  EXPECT_EQ(build->instance.num_operators(), 2);
  EXPECT_EQ(build->instance.sharing_degree(0), 5);

  auto response = service_.Admit(
      MakeRequest(build->instance, "cat", engine_.options().capacity, 1));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->allocation.NumAdmitted(), 6);
}

TEST_F(AuctionEngineTest, WinnersExecuteAndLoadsConverge) {
  std::vector<QuerySubmission> subs = {SelectSub(1, 50.0, 150.0),
                                       SelectSub(2, 40.0, 60.0)};
  auto build = stream::BuildAuctionInstance(engine_, subs, {});
  ASSERT_TRUE(build.ok());

  auto response =
      service_.Admit(MakeRequest(build->instance, "cat", 3.0, 2));
  ASSERT_TRUE(response.ok());
  const auction::Allocation& alloc = response->allocation;
  ASSERT_TRUE(IsFeasible(build->instance, alloc));

  for (size_t i = 0; i < subs.size(); ++i) {
    if (alloc.IsAdmitted(static_cast<auction::QueryId>(i))) {
      ASSERT_TRUE(
          engine_.InstallQuery(subs[i].query_id, subs[i].plan).ok());
    }
  }
  engine_.Run(20.0);

  // Measured loads now exist for installed signatures; a re-estimate
  // must pick them up (prefer_measured default).
  auto re_estimate =
      stream::EstimatePlanLoad(engine_, subs[0].plan, {});
  ASSERT_TRUE(re_estimate.ok());
  auto measured = engine_.MeasuredLoad(
      subs[0].plan.NodeSignatures()[subs[0].plan.output_node]);
  ASSERT_TRUE(measured.ok());
  EXPECT_DOUBLE_EQ(re_estimate->nodes[1].load, *measured);
  // The analytic model (cost 0.01 x 100/s = 1) should be close to the
  // measurement.
  EXPECT_NEAR(*measured, 1.0, 0.25);
}

TEST_F(AuctionEngineTest, EveryMechanismProducesInstallableWinners) {
  std::vector<QuerySubmission> subs;
  for (int i = 0; i < 6; ++i) {
    subs.push_back(SelectSub(i, 60.0 - 5 * i, 100.0 + 20 * i));
  }
  auto build = stream::BuildAuctionInstance(engine_, subs, {});
  ASSERT_TRUE(build.ok());

  for (const std::string& name : service_.MechanismNames()) {
    auto response =
        service_.Admit(MakeRequest(build->instance, name, 3.0, 3));
    ASSERT_TRUE(response.ok()) << name;
    const auction::Allocation& alloc = response->allocation;
    ASSERT_TRUE(IsFeasible(build->instance, alloc)) << name;

    Engine fresh(EngineOptions{3.0, 1.0, 8});
    ASSERT_TRUE(fresh
                    .RegisterSource(stream::MakeStockQuoteSource(
                        "quotes", {"IBM"}, 100.0, 5))
                    .ok());
    for (size_t i = 0; i < subs.size(); ++i) {
      if (alloc.IsAdmitted(static_cast<auction::QueryId>(i))) {
        ASSERT_TRUE(
            fresh.InstallQuery(subs[i].query_id, subs[i].plan).ok())
            << name;
      }
    }
    fresh.Run(5.0);
    // The engine must not exceed its provisioned capacity on admitted
    // work (the auction's promise).
    EXPECT_LE(fresh.LastRunUtilization(), 1.0 + 0.2) << name;
  }
}

}  // namespace
}  // namespace streambid
