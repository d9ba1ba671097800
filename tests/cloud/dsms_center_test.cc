// Copyright 2026 The streambid Authors
// The DSMS center: per-period auction -> transition -> execution ->
// billing.

#include "cloud/dsms_center.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "stream/load_estimator.h"
#include "stream/query_builder.h"

namespace streambid::cloud {
namespace {

using stream::CompareOp;
using stream::QueryBuilder;
using stream::QueryPlan;
using stream::QuerySubmission;
using stream::Value;

class DsmsCenterTest : public ::testing::Test {
 protected:
  DsmsCenterTest() : engine_(stream::EngineOptions{2.0, 1.0, 8}) {
    // Tiny capacity (2 units) so the auction actually rejects: each
    // select at 100 tuples/s costs ~1 unit.
    EXPECT_TRUE(engine_
                    .RegisterSource(stream::MakeStockQuoteSource(
                        "quotes", {"IBM", "AAPL", "MSFT"}, 100.0, 11))
                    .ok());
  }

  QuerySubmission MakeSubmission(int id, auction::UserId user, double bid,
                                 double threshold) {
    QueryBuilder b;
    const int src = b.Source("quotes");
    const int sel =
        b.Select(src, "price", CompareOp::kGt, Value(threshold));
    QuerySubmission sub;
    sub.query_id = id;
    sub.user = user;
    sub.bid = bid;
    sub.plan = b.Build(sel);
    return sub;
  }

  stream::Engine engine_;
};

TEST_F(DsmsCenterTest, AdmitsByDensityAndBills) {
  DsmsCenterOptions options;
  options.mechanism = "cat";
  options.period_length = 10.0;
  DsmsCenter center(options, &engine_);

  // Three distinct queries, each ~1 unit load, capacity 2: the two
  // highest-density queries win, the third prices them.
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 100, 50.0, 110.0)).ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(2, 200, 40.0, 120.0)).ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(3, 300, 10.0, 130.0)).ok());

  auto report = center.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->submissions, 3);
  EXPECT_EQ(report->admitted, 2);
  EXPECT_GT(report->revenue, 0.0);
  EXPECT_EQ(center.total_revenue(), report->revenue);
  // Winners installed and executed.
  for (int qid : report->admitted_ids) {
    EXPECT_TRUE(engine_.IsInstalled(qid));
    EXPECT_NE(engine_.sink(qid), nullptr);
  }
  // The losing query is not installed.
  EXPECT_EQ(report->payments.count(3), 0u);
  EXPECT_FALSE(engine_.IsInstalled(3));
  // Billing attributed to the right users.
  EXPECT_GT(center.ledger().TotalCharged(100), 0.0);
  EXPECT_DOUBLE_EQ(center.ledger().TotalCharged(300), 0.0);
}

TEST_F(DsmsCenterTest, QueriesExpireUnlessResubmitted) {
  DsmsCenterOptions options;
  options.period_length = 5.0;
  DsmsCenter center(options, &engine_);
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 1, 50.0, 110.0)).ok());
  auto r1 = center.RunPeriod();
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1->admitted, 1);
  EXPECT_TRUE(engine_.IsInstalled(1));

  // No resubmission: the next period evicts it.
  auto r2 = center.RunPeriod();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->admitted, 0);
  EXPECT_FALSE(engine_.IsInstalled(1));
  EXPECT_TRUE(center.active_queries().empty());
}

TEST_F(DsmsCenterTest, ResubmissionRenews) {
  DsmsCenterOptions options;
  options.period_length = 5.0;
  DsmsCenter center(options, &engine_);
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 1, 50.0, 110.0)).ok());
  ASSERT_TRUE(center.RunPeriod().ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 1, 50.0, 110.0)).ok());
  auto r2 = center.RunPeriod();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->admitted, 1);
  EXPECT_TRUE(engine_.IsInstalled(1));
  // Charged every period it wins.
  EXPECT_EQ(center.history().size(), 2u);
}

TEST_F(DsmsCenterTest, SubmitValidation) {
  DsmsCenterOptions options;
  DsmsCenter center(options, &engine_);
  QuerySubmission bad = MakeSubmission(1, 1, -5.0, 110.0);
  EXPECT_EQ(center.Submit(bad).status().code(), StatusCode::kInvalidArgument);

  QueryBuilder b;
  const int src = b.Source("no_such_stream");
  QuerySubmission unknown;
  unknown.query_id = 2;
  unknown.bid = 5.0;
  unknown.plan = b.Build(src);
  EXPECT_EQ(center.Submit(unknown).status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(center.Submit(MakeSubmission(3, 1, 5.0, 1.0)).ok());
  EXPECT_EQ(center.Submit(MakeSubmission(3, 1, 5.0, 1.0)).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DsmsCenterTest, PendingIdsFreeOnRefusalAndAtPeriodEnd) {
  DsmsCenterOptions options;
  options.period_length = 5.0;
  DsmsCenter center(options, &engine_);
  // A refused submission does not hold its id.
  QueryBuilder b;
  QuerySubmission tap;
  tap.query_id = 7;
  tap.bid = 10.0;
  tap.plan = b.Build(b.Source("quotes"));
  EXPECT_FALSE(center.Submit(tap).ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(7, 1, 10.0, 110.0)).ok());
  EXPECT_EQ(center.Submit(MakeSubmission(7, 2, 20.0, 120.0)).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(center.pending_submissions(), 1);
  // A completed period frees every pending id.
  ASSERT_TRUE(center.RunPeriod().ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(7, 2, 20.0, 120.0)).ok());
  EXPECT_EQ(center.pending_submissions(), 1);
}

TEST_F(DsmsCenterTest, SubmitRejectsNonFiniteBid) {
  DsmsCenterOptions options;
  DsmsCenter center(options, &engine_);
  const double inf = std::numeric_limits<double>::infinity();
  int id = 1;
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_EQ(center.Submit(MakeSubmission(id++, 1, bad, 110.0))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  // Nothing was queued: the period auctions no one.
  auto report = center.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->submissions, 0);
  EXPECT_DOUBLE_EQ(report->revenue, 0.0);
}

TEST_F(DsmsCenterTest, SubmitRejectsNonFiniteCostOverride) {
  DsmsCenterOptions options;
  DsmsCenter center(options, &engine_);
  const double inf = std::numeric_limits<double>::infinity();
  int id = 1;
  for (const double bad :
       {inf, -inf, std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    QueryBuilder b;
    const int src = b.Source("quotes");
    b.Select(src, "price", CompareOp::kGt, Value(110.0));
    b.SetCostOverride(bad);
    QuerySubmission sub;
    sub.query_id = id++;
    sub.user = 1;
    sub.bid = 10.0;
    sub.plan = b.Build(1);
    EXPECT_EQ(center.Submit(std::move(sub)).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  // A rejected plan never reaches the auction, so the next period
  // prices the valid submission instead of failing on the bad one.
  ASSERT_TRUE(center.Submit(MakeSubmission(id, 2, 10.0, 110.0)).ok());
  auto report = center.RunPeriod();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->submissions, 1);
  EXPECT_EQ(report->admitted, 1);
}

TEST_F(DsmsCenterTest, EmptyPeriodRunsCleanly) {
  DsmsCenterOptions options;
  options.period_length = 3.0;
  DsmsCenter center(options, &engine_);
  auto report = center.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->submissions, 0);
  EXPECT_EQ(report->admitted, 0);
  EXPECT_DOUBLE_EQ(report->revenue, 0.0);
  EXPECT_DOUBLE_EQ(engine_.now(), 3.0);
}

TEST_F(DsmsCenterTest, MeasuredUtilizationReported) {
  DsmsCenterOptions options;
  options.period_length = 10.0;
  DsmsCenter center(options, &engine_);
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 1, 50.0, 110.0)).ok());
  auto report = center.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->measured_utilization, 0.0);
  EXPECT_LE(report->measured_utilization, 1.0);
}

TEST_F(DsmsCenterTest, SharedSubmissionsAdmitMoreThanDisjoint) {
  // Two identical plans share their operator: both fit in capacity 2
  // alongside a third distinct query.
  DsmsCenterOptions options;
  options.period_length = 5.0;
  DsmsCenter center(options, &engine_);
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 1, 50.0, 110.0)).ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(2, 2, 40.0, 110.0)).ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(3, 3, 30.0, 120.0)).ok());
  auto report = center.RunPeriod();
  ASSERT_TRUE(report.ok());
  // Queries 1 and 2 share one ~1-unit operator; query 3 needs its own.
  EXPECT_EQ(report->admitted, 3);
}

// --- Plans the auction cannot price are refused at Submit, so they
// cannot stall every later period of the center. ---

TEST_F(DsmsCenterTest, SubmitRejectsSourceOnlyPlan) {
  DsmsCenterOptions options;
  options.period_length = 5.0;
  DsmsCenter center(options, &engine_);
  QueryBuilder b;
  QuerySubmission tap;
  tap.query_id = 1;
  tap.user = 1;
  tap.bid = 10.0;
  tap.plan = b.Build(b.Source("quotes"));
  EXPECT_EQ(center.Submit(std::move(tap)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(center.pending_submissions(), 0);

  ASSERT_TRUE(center.Submit(MakeSubmission(2, 2, 10.0, 110.0)).ok());
  auto report = center.RunPeriod();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->submissions, 1);
  EXPECT_EQ(report->admitted, 1);
}

TEST_F(DsmsCenterTest, SubmitRejectsOverflowingLoadEstimate) {
  DsmsCenterOptions options;
  options.period_length = 5.0;
  DsmsCenter center(options, &engine_);
  // A finite but huge join window overflows the join's estimated output
  // rate, so the select it feeds is priced at an infinite load.
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int joined = b.Join(src, src, "symbol", "symbol", 1e308);
  const int sel = b.Select(joined, "price", CompareOp::kGt, Value(110.0));
  QuerySubmission huge;
  huge.query_id = 1;
  huge.user = 1;
  huge.bid = 10.0;
  huge.plan = b.Build(sel);
  EXPECT_EQ(center.Submit(std::move(huge)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(center.pending_submissions(), 0);

  ASSERT_TRUE(center.Submit(MakeSubmission(2, 2, 10.0, 110.0)).ok());
  auto report = center.RunPeriod();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->submissions, 1);
  EXPECT_EQ(report->admitted, 1);
}

TEST_F(DsmsCenterTest, SubmitRejectsNumericOpsOnStringFields) {
  DsmsCenterOptions options;
  options.period_length = 5.0;
  DsmsCenter center(options, &engine_);
  // Each plan reads the quote source's string field symbol as a number;
  // Submit refuses it instead of admitting a plan that aborts at run.
  std::vector<QueryPlan> plans;
  QueryBuilder b;
  plans.push_back(b.Build(b.Select(b.Source("quotes"), "symbol",
                                   CompareOp::kGt, Value(5.0))));
  plans.push_back(b.Build(b.Aggregate(b.Source("quotes"),
                                      stream::AggFn::kAvg, "symbol", "",
                                      {10.0, 10.0})));
  plans.push_back(b.Build(b.TopK(b.Source("quotes"), 2, "symbol", 10.0)));
  plans.push_back(b.Build(b.Map(b.Source("quotes"), "symbol",
                                stream::MapFn::kMul, 2.0, "twice")));
  int id = 0;
  for (QueryPlan& plan : plans) {
    QuerySubmission sub;
    sub.query_id = ++id;
    sub.user = 1;
    sub.bid = 10.0;
    sub.plan = std::move(plan);
    EXPECT_EQ(center.Submit(std::move(sub)).status().code(),
              StatusCode::kInvalidArgument)
        << "plan " << id;
    EXPECT_EQ(center.pending_submissions(), 0);
  }

  // count reads no field, and == across kinds is simply false: each is
  // admitted and runs for a period.
  plans.clear();
  plans.push_back(b.Build(b.Aggregate(b.Source("quotes"),
                                      stream::AggFn::kCount, "symbol", "",
                                      {1.0, 1.0})));
  plans.push_back(b.Build(b.Select(b.Source("quotes"), "symbol",
                                   CompareOp::kEq, Value(5.0))));
  for (QueryPlan& plan : plans) {
    QuerySubmission sub;
    sub.query_id = ++id;
    sub.user = 1;
    sub.bid = 10.0;
    sub.plan = std::move(plan);
    ASSERT_TRUE(center.Submit(std::move(sub)).ok()) << "plan " << id;
    auto report = center.RunPeriod();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->admitted, 1) << "plan " << id;
  }
}

TEST_F(DsmsCenterTest, SubmitReturnsTheLoadEstimate) {
  DsmsCenterOptions options;
  DsmsCenter center(options, &engine_);
  QuerySubmission sub = MakeSubmission(1, 1, 10.0, 110.0);
  const auto estimate =
      stream::EstimatePlanLoad(engine_, sub.plan, options.load_options);
  ASSERT_TRUE(estimate.ok());
  const auto load = center.Submit(std::move(sub));
  ASSERT_TRUE(load.ok());
  EXPECT_DOUBLE_EQ(*load, estimate->total_load);
}

TEST_F(DsmsCenterTest, PrepareAuctionPricesTheSubmitEstimates) {
  DsmsCenterOptions options;
  options.mechanism = "cat";
  options.period_length = 5.0;
  DsmsCenter center(options, &engine_);
  // Period 0 installs and runs winners, so the next estimates read
  // measured loads for their selects.
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 1, 50.0, 110.0)).ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(2, 2, 40.0, 120.0)).ok());
  const auto period0 = center.RunPeriod();
  ASSERT_TRUE(period0.ok());
  ASSERT_GT(period0->admitted, 0);

  const std::vector<QuerySubmission> subs = {
      MakeSubmission(1, 1, 50.0, 110.0),  // Renewal.
      MakeSubmission(3, 3, 30.0, 110.0),  // Shares query 1's select.
      MakeSubmission(4, 4, 20.0, 125.0),  // A new select.
      MakeSubmission(5, 1, 45.0, 120.0)};
  for (const QuerySubmission& sub : subs) {
    ASSERT_TRUE(center.Submit(sub).ok());
  }
  const auto expected =
      stream::BuildAuctionInstance(engine_, subs, options.load_options);
  ASSERT_TRUE(expected.ok());
  const auto prepared = center.PrepareAuction();
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->has_auction);

  const stream::AuctionBuild& build = *prepared->build;
  EXPECT_EQ(build.query_ids, expected->query_ids);
  EXPECT_EQ(build.op_signatures, expected->op_signatures);
  const auction::AuctionInstance& got = build.instance;
  const auction::AuctionInstance& want = expected->instance;
  ASSERT_EQ(got.num_operators(), want.num_operators());
  for (auction::OperatorId j = 0; j < got.num_operators(); ++j) {
    EXPECT_EQ(got.operator_load(j), want.operator_load(j)) << "op " << j;
  }
  ASSERT_EQ(got.num_queries(), want.num_queries());
  for (auction::QueryId i = 0; i < got.num_queries(); ++i) {
    EXPECT_EQ(got.user(i), want.user(i)) << "query " << i;
    EXPECT_EQ(got.bid(i), want.bid(i)) << "query " << i;
    EXPECT_EQ(got.query_operators(i), want.query_operators(i))
        << "query " << i;
  }
  EXPECT_EQ(got.Summary(), want.Summary());
}

// --- Tenant extract/adopt: the migration surface the cluster rebalancer
// moves a tenant through. It runs between periods, after the auction has
// drained every pending submission, so what moves is the ledger balance.
// ---

TEST_F(DsmsCenterTest, ExtractTenantMovesPendingAndCharges) {
  DsmsCenterOptions options;
  options.mechanism = "cat";
  options.period_length = 5.0;
  DsmsCenter center(options, &engine_);

  // Bill user 7 in period 0 so there are charges to carry.
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 7, 50.0, 110.0)).ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(2, 7, 45.0, 115.0)).ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(3, 9, 40.0, 120.0)).ok());
  ASSERT_TRUE(center.RunPeriod().ok());
  const double charged = center.ledger().TotalCharged(7);
  ASSERT_GT(charged, 0.0);
  const double other = center.ledger().TotalCharged(9);
  const double total_before = center.total_revenue();

  // The period consumed every pending submission, so none is left to
  // move, and extraction carries the charges alone.
  ASSERT_EQ(center.pending_submissions(), 0);
  EXPECT_DOUBLE_EQ(center.ExtractTenant(7), charged);
  EXPECT_EQ(center.pending_submissions(), 0);
  // The source center no longer holds the balance; other tenants keep
  // theirs.
  EXPECT_DOUBLE_EQ(center.ledger().TotalCharged(7), 0.0);
  EXPECT_DOUBLE_EQ(center.ledger().TotalCharged(9), other);
  EXPECT_DOUBLE_EQ(center.total_revenue(), total_before - charged);

  // Extracting again, or a tenant this center never billed, yields zero.
  EXPECT_DOUBLE_EQ(center.ExtractTenant(7), 0.0);
  EXPECT_DOUBLE_EQ(center.ExtractTenant(12345), 0.0);
}

TEST_F(DsmsCenterTest, AdoptTenantQueuesAndCredits) {
  DsmsCenterOptions options;
  options.mechanism = "cat";
  options.period_length = 5.0;
  DsmsCenter source(options, &engine_);
  stream::Engine other_engine(stream::EngineOptions{2.0, 1.0, 8});
  ASSERT_TRUE(other_engine
                  .RegisterSource(stream::MakeStockQuoteSource(
                      "quotes", {"IBM", "AAPL", "MSFT"}, 100.0, 11))
                  .ok());
  DsmsCenter destination(options, &other_engine);

  // Three ~1-unit queries on 2 units of capacity: user 7's bids win
  // and the losing bid prices them, so the charge is positive.
  ASSERT_TRUE(source.Submit(MakeSubmission(1, 7, 50.0, 110.0)).ok());
  ASSERT_TRUE(source.Submit(MakeSubmission(3, 7, 45.0, 120.0)).ok());
  ASSERT_TRUE(source.Submit(MakeSubmission(4, 9, 10.0, 130.0)).ok());
  ASSERT_TRUE(source.RunPeriod().ok());
  const double charged = source.ledger().TotalCharged(7);
  ASSERT_GT(charged, 0.0);
  const double total = source.total_revenue() + destination.total_revenue();

  // The balance moves, and the total across the two centers is
  // conserved.
  destination.AdoptTenant(7, source.ExtractTenant(7));
  EXPECT_DOUBLE_EQ(destination.ledger().TotalCharged(7), charged);
  EXPECT_DOUBLE_EQ(source.ledger().TotalCharged(7), 0.0);
  EXPECT_DOUBLE_EQ(source.total_revenue() + destination.total_revenue(),
                   total);

  // The adopted tenant's next submission queues at the destination and
  // competes in its next auction; the credited balance stays.
  ASSERT_TRUE(destination.Submit(MakeSubmission(2, 7, 45.0, 112.0)).ok());
  EXPECT_EQ(destination.pending_submissions(), 1);
  const auto report = destination.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->submissions, 1);
  EXPECT_EQ(report->admitted, 1);
  EXPECT_GE(destination.ledger().TotalCharged(7), charged);
}

using DsmsCenterDeathTest = DsmsCenterTest;

TEST_F(DsmsCenterDeathTest, ExtractTenantRequiresEmptyQueue) {
  DsmsCenterOptions options;
  DsmsCenter center(options, &engine_);
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 7, 50.0, 110.0)).ok());
  EXPECT_DEATH(center.ExtractTenant(7), "pending_.empty");
}

}  // namespace
}  // namespace streambid::cloud
