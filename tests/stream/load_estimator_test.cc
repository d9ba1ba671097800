// Copyright 2026 The streambid Authors

#include "stream/load_estimator.h"

#include <gtest/gtest.h>

#include "stream/query_builder.h"

namespace streambid::stream {
namespace {

class LoadEstimatorTest : public ::testing::Test {
 protected:
  LoadEstimatorTest() : engine_(EngineOptions{1000.0, 1.0, 8}) {
    EXPECT_TRUE(engine_
                    .RegisterSource(MakeStockQuoteSource(
                        "quotes", {"IBM", "AAPL"}, 100.0, 3))
                    .ok());
    EXPECT_TRUE(engine_
                    .RegisterSource(MakeNewsSource("news", {"IBM", "AAPL"},
                                                   0.5, 10.0, 4))
                    .ok());
  }

  QueryPlan SelectPlan(double threshold) {
    QueryBuilder b;
    const int src = b.Source("quotes");
    const int sel =
        b.Select(src, "price", CompareOp::kGt, Value(threshold));
    return b.Build(sel);
  }

  Engine engine_;
  LoadEstimateOptions options_;
};

TEST_F(LoadEstimatorTest, SelectLoadIsCostTimesRate) {
  auto est = EstimatePlanLoad(engine_, SelectPlan(100.0), options_);
  ASSERT_TRUE(est.ok());
  ASSERT_EQ(est->nodes.size(), 2u);
  EXPECT_TRUE(est->nodes[0].is_source);
  EXPECT_DOUBLE_EQ(est->nodes[0].output_rate, 100.0);
  // Select: input 100/s * default cost 0.01 = 1 capacity unit.
  EXPECT_DOUBLE_EQ(est->nodes[1].input_rate, 100.0);
  EXPECT_DOUBLE_EQ(est->nodes[1].load, 1.0);
  EXPECT_DOUBLE_EQ(est->nodes[1].output_rate, 50.0);  // Selectivity 0.5.
  EXPECT_DOUBLE_EQ(est->total_load, 1.0);
}

TEST_F(LoadEstimatorTest, ChainedSelectivityCompounds) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int s1 = b.Select(src, "price", CompareOp::kGt, Value(10.0));
  const int s2 = b.Select(s1, "volume", CompareOp::kGt,
                          Value(int64_t{100}));
  auto est = EstimatePlanLoad(engine_, b.Build(s2), options_);
  ASSERT_TRUE(est.ok());
  // Second select sees 50/s, outputs 25/s.
  EXPECT_DOUBLE_EQ(est->nodes[2].input_rate, 50.0);
  EXPECT_DOUBLE_EQ(est->nodes[2].output_rate, 25.0);
  EXPECT_DOUBLE_EQ(est->nodes[2].load, 0.5);
}

TEST_F(LoadEstimatorTest, JoinRateUsesWindowAndMatchFraction) {
  QueryBuilder b;
  const int quotes = b.Source("quotes");
  const int news = b.Source("news");
  const int j = b.Join(quotes, news, "symbol", "company", 10.0);
  auto est = EstimatePlanLoad(engine_, b.Build(j), options_);
  ASSERT_TRUE(est.ok());
  const NodeLoadEstimate& join = est->nodes[2];
  EXPECT_DOUBLE_EQ(join.input_rate, 110.0);  // Both sides.
  // 100 * 10 * 10s * 0.01 match fraction = 100/s out.
  EXPECT_DOUBLE_EQ(join.output_rate, 100.0);
  EXPECT_DOUBLE_EQ(join.load, 110.0 * DefaultCosts::kJoin);
}

TEST_F(LoadEstimatorTest, CostOverrideRespected) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(1.0));
  b.SetCostOverride(0.05);
  auto est = EstimatePlanLoad(engine_, b.Build(sel), options_);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->nodes[1].load, 5.0);  // 100/s * 0.05.
}

TEST_F(LoadEstimatorTest, MeasuredLoadPreferredWhenInstalled) {
  const QueryPlan plan = SelectPlan(0.0);  // Passes everything.
  ASSERT_TRUE(engine_.InstallQuery(1, plan).ok());
  engine_.Run(10.0);
  LoadEstimateOptions prefer = options_;
  prefer.prefer_measured = true;
  auto est = EstimatePlanLoad(engine_, plan, prefer);
  ASSERT_TRUE(est.ok());
  auto measured =
      engine_.MeasuredLoad(plan.NodeSignatures()[plan.output_node]);
  ASSERT_TRUE(measured.ok());
  EXPECT_DOUBLE_EQ(est->nodes[1].load, *measured);

  LoadEstimateOptions analytic = options_;
  analytic.prefer_measured = false;
  auto est2 = EstimatePlanLoad(engine_, plan, analytic);
  ASSERT_TRUE(est2.ok());
  EXPECT_DOUBLE_EQ(est2->nodes[1].load, 1.0);  // Model, not measurement.
}

TEST_F(LoadEstimatorTest, BuildAuctionInstanceSharesOperators) {
  std::vector<QuerySubmission> subs;
  QuerySubmission a;
  a.query_id = 10;
  a.user = 1;
  a.bid = 50.0;
  a.plan = SelectPlan(100.0);
  QuerySubmission b_sub;
  b_sub.query_id = 11;
  b_sub.user = 2;
  b_sub.bid = 30.0;
  b_sub.plan = SelectPlan(100.0);  // Identical plan: full sharing.
  QuerySubmission c;
  c.query_id = 12;
  c.user = 3;
  c.bid = 20.0;
  c.plan = SelectPlan(200.0);  // Different predicate.
  subs = {a, b_sub, c};

  auto build = BuildAuctionInstance(engine_, subs, options_);
  ASSERT_TRUE(build.ok());
  const auction::AuctionInstance& inst = build->instance;
  EXPECT_EQ(inst.num_queries(), 3);
  // Two distinct select operators (sources excluded).
  EXPECT_EQ(inst.num_operators(), 2);
  EXPECT_EQ(inst.sharing_degree(0), 2);
  EXPECT_EQ(inst.sharing_degree(1), 1);
  EXPECT_EQ(build->query_ids, (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(build->op_signatures.size(), 2u);
  // Queries 0 and 1 share their only operator; fair share halves.
  EXPECT_DOUBLE_EQ(inst.fair_share_load(0), inst.total_load(0) / 2.0);
}

TEST_F(LoadEstimatorTest, SourceOnlyPlanRejected) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  QuerySubmission sub;
  sub.query_id = 1;
  sub.plan = b.Build(src);
  sub.bid = 5.0;
  auto build = BuildAuctionInstance(engine_, {sub}, options_);
  EXPECT_FALSE(build.ok());
}

TEST_F(LoadEstimatorTest, UnknownSourceFails) {
  QueryBuilder b;
  const int src = b.Source("bogus");
  const int sel = b.Select(src, "x", CompareOp::kGt, Value(1.0));
  auto est = EstimatePlanLoad(engine_, b.Build(sel), options_);
  EXPECT_FALSE(est.ok());
}

}  // namespace
}  // namespace streambid::stream
