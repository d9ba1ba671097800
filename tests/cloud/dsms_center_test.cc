// Copyright 2026 The streambid Authors
// The DSMS center: per-period auction -> transition -> execution ->
// billing.

#include "cloud/dsms_center.h"

#include <gtest/gtest.h>

#include <limits>

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
  EXPECT_EQ(center.Submit(bad).code(), StatusCode::kInvalidArgument);

  QueryBuilder b;
  const int src = b.Source("no_such_stream");
  QuerySubmission unknown;
  unknown.query_id = 2;
  unknown.bid = 5.0;
  unknown.plan = b.Build(src);
  EXPECT_EQ(center.Submit(unknown).code(), StatusCode::kNotFound);

  ASSERT_TRUE(center.Submit(MakeSubmission(3, 1, 5.0, 1.0)).ok());
  EXPECT_EQ(center.Submit(MakeSubmission(3, 1, 5.0, 1.0)).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DsmsCenterTest, SubmitRejectsNonFiniteBid) {
  DsmsCenterOptions options;
  DsmsCenter center(options, &engine_);
  const double inf = std::numeric_limits<double>::infinity();
  int id = 1;
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_EQ(center.Submit(MakeSubmission(id++, 1, bad, 110.0)).code(),
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
    EXPECT_EQ(center.Submit(std::move(sub)).code(),
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

// --- Tenant extract/adopt: the migration surface the cluster
// rebalancer moves a subscription's state through. ---

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
  const double total_before = center.total_revenue();

  // Queue the next period with a mix of tenants, then extract user 7.
  ASSERT_TRUE(center.Submit(MakeSubmission(11, 7, 30.0, 110.0)).ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(12, 9, 25.0, 120.0)).ok());
  ASSERT_TRUE(center.Submit(MakeSubmission(13, 7, 20.0, 125.0)).ok());
  TenantState state = center.ExtractTenant(7);
  EXPECT_EQ(state.user, 7);
  ASSERT_EQ(state.pending.size(), 2u);
  EXPECT_EQ(state.pending[0].query_id, 11);  // Submission order kept.
  EXPECT_EQ(state.pending[1].query_id, 13);
  EXPECT_DOUBLE_EQ(state.charged, charged);
  // The source center no longer holds any of it.
  EXPECT_EQ(center.pending_submissions(), 1);
  EXPECT_DOUBLE_EQ(center.ledger().TotalCharged(7), 0.0);
  EXPECT_DOUBLE_EQ(center.total_revenue(), total_before - charged);

  // Unknown tenants extract as empty state, harmlessly.
  const TenantState nobody = center.ExtractTenant(12345);
  EXPECT_TRUE(nobody.pending.empty());
  EXPECT_DOUBLE_EQ(nobody.charged, 0.0);
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
  ASSERT_TRUE(source.Submit(MakeSubmission(2, 7, 45.0, 112.0)).ok());
  const double charged = source.ledger().TotalCharged(7);
  ASSERT_GT(charged, 0.0);

  TenantState state = source.ExtractTenant(7);
  ASSERT_TRUE(destination.AdoptTenant(state).ok());
  EXPECT_TRUE(state.pending.empty());  // Consumed on success.
  EXPECT_DOUBLE_EQ(state.charged, 0.0);
  EXPECT_EQ(destination.pending_submissions(), 1);
  EXPECT_DOUBLE_EQ(destination.ledger().TotalCharged(7), charged);

  // The state is spent: adopting it again is a harmless no-op, never a
  // double credit.
  ASSERT_TRUE(destination.AdoptTenant(state).ok());
  EXPECT_EQ(destination.pending_submissions(), 1);
  EXPECT_DOUBLE_EQ(destination.ledger().TotalCharged(7), charged);

  // The adopted submission competes in the destination's next auction.
  const auto report = destination.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->submissions, 1);
  EXPECT_EQ(report->admitted, 1);
}

TEST_F(DsmsCenterTest, AdoptTenantIsAllOrNothing) {
  DsmsCenterOptions options;
  options.mechanism = "cat";
  options.period_length = 5.0;
  DsmsCenter center(options, &engine_);
  ASSERT_TRUE(center.Submit(MakeSubmission(1, 9, 50.0, 110.0)).ok());

  // Second pending submission collides with an id already queued here:
  // nothing may be adopted, and the caller keeps the state.
  TenantState state;
  state.user = 7;
  state.charged = 3.5;
  state.pending.push_back(MakeSubmission(5, 7, 40.0, 112.0));
  state.pending.push_back(MakeSubmission(1, 7, 30.0, 114.0));
  EXPECT_EQ(center.AdoptTenant(state).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(state.pending.size(), 2u);
  EXPECT_EQ(center.pending_submissions(), 1);
  EXPECT_DOUBLE_EQ(center.ledger().TotalCharged(7), 0.0);

  // A plan the destination engine rejects blocks adoption the same way.
  QueryBuilder bad;
  const int src = bad.Source("no_such_stream");
  QuerySubmission unknown;
  unknown.query_id = 6;
  unknown.user = 7;
  unknown.bid = 5.0;
  unknown.plan = bad.Build(src);
  state.pending[1] = std::move(unknown);
  EXPECT_EQ(center.AdoptTenant(state).code(), StatusCode::kNotFound);
  EXPECT_EQ(center.pending_submissions(), 1);

  // Duplicate ids inside the adopted batch itself are also rejected.
  TenantState twins;
  twins.user = 8;
  twins.pending.push_back(MakeSubmission(9, 8, 20.0, 111.0));
  twins.pending.push_back(MakeSubmission(9, 8, 25.0, 113.0));
  EXPECT_EQ(center.AdoptTenant(twins).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(center.pending_submissions(), 1);
}

}  // namespace
}  // namespace streambid::cloud
