// Copyright 2026 The streambid Authors
// The §VII multi-length subscription scheme.

#include "cloud/subscription.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace streambid::cloud {
namespace {

std::vector<auction::OperatorSpec> Pool() {
  return {{2.0}, {3.0}, {5.0}, {4.0}};
}

std::vector<SubscriptionCategory> DayWeek() {
  return {{"daily", 1, 0.5}, {"weekly", 7, 0.5}};
}

SubscriptionRequest Req(int id, auction::UserId user, double bid,
                        std::vector<auction::OperatorId> ops, int cat) {
  SubscriptionRequest r;
  r.request_id = id;
  r.user = user;
  r.bid = bid;
  r.operators = std::move(ops);
  r.category = cat;
  return r;
}

TEST(SubscriptionTest, SubmitValidation) {
  SubscriptionManager mgr(DayWeek(), Pool(), 10.0, "cat", 1);
  EXPECT_TRUE(mgr.Submit(Req(1, 1, 5.0, {0}, 0)).ok());
  EXPECT_FALSE(mgr.Submit(Req(2, 1, 5.0, {9}, 0)).ok());   // Bad op.
  EXPECT_FALSE(mgr.Submit(Req(3, 1, 5.0, {0}, 7)).ok());   // Bad cat.
  EXPECT_FALSE(mgr.Submit(Req(4, 1, -1.0, {0}, 0)).ok());  // Bad bid.
  EXPECT_FALSE(mgr.Submit(Req(5, 1, 5.0, {}, 0)).ok());    // No ops.
  EXPECT_EQ(mgr.Submit(Req(6, 1, 5.0, {0, 0}, 0)).code(),
            StatusCode::kInvalidArgument);  // Repeated op.
  for (double bid : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(mgr.Submit(Req(7, 1, bid, {0}, 0)).code(),
              StatusCode::kInvalidArgument);
  }
  // The rejected requests never reach the day's auction, which still
  // runs over the one valid request.
  const SubscriptionDayReport day = mgr.AdvanceDay();
  EXPECT_EQ(day.admitted + day.rejected, 1);
  EXPECT_EQ(day.admitted, 1);
  EXPECT_TRUE(std::isfinite(day.revenue));
}

TEST(SubscriptionTest, WinnersRunForTheirCategoryLength) {
  SubscriptionManager mgr(DayWeek(), Pool(), 20.0, "cat", 1);
  ASSERT_TRUE(mgr.Submit(Req(1, 1, 50.0, {0}, /*daily*/ 0)).ok());
  ASSERT_TRUE(mgr.Submit(Req(2, 2, 60.0, {1}, /*weekly*/ 1)).ok());
  const SubscriptionDayReport day1 = mgr.AdvanceDay();
  EXPECT_EQ(day1.admitted, 2);
  EXPECT_EQ(mgr.active().size(), 2u);

  // Day 2: the daily subscription expired, the weekly continues.
  const SubscriptionDayReport day2 = mgr.AdvanceDay();
  EXPECT_EQ(day2.expired, 1);
  ASSERT_EQ(mgr.active().size(), 1u);
  EXPECT_EQ(mgr.active()[0].request_id, 2);
  EXPECT_EQ(mgr.active()[0].expires_day, 8);  // Day 1 + 7.
}

TEST(SubscriptionTest, ContinuingSubscriptionsReduceAvailableCapacity) {
  SubscriptionManager mgr(DayWeek(), Pool(), 10.0, "cat", 1);
  ASSERT_TRUE(mgr.Submit(Req(1, 1, 50.0, {2}, /*weekly*/ 1)).ok());
  const SubscriptionDayReport day1 = mgr.AdvanceDay();
  ASSERT_EQ(day1.admitted, 1);
  EXPECT_DOUBLE_EQ(day1.committed_load, 0.0);  // Before admission.

  const SubscriptionDayReport day2 = mgr.AdvanceDay();
  // Operator 2 (load 5) is committed to the continuing weekly sub.
  EXPECT_DOUBLE_EQ(day2.committed_load, 5.0);
  EXPECT_DOUBLE_EQ(day2.available_capacity, 5.0);
}

TEST(SubscriptionTest, CategoryCapacityLimitsAdmission) {
  // Total 10, two categories at 50%: each auction sees 5 units.
  SubscriptionManager mgr(DayWeek(), Pool(), 10.0, "cat", 1);
  // Two daily requests with disjoint ops (2 + 3 = 5 > 5? No: equals 5,
  // fits). A third (load 5) cannot.
  ASSERT_TRUE(mgr.Submit(Req(1, 1, 50.0, {0}, 0)).ok());
  ASSERT_TRUE(mgr.Submit(Req(2, 2, 40.0, {1}, 0)).ok());
  ASSERT_TRUE(mgr.Submit(Req(3, 3, 30.0, {2}, 0)).ok());
  const SubscriptionDayReport day1 = mgr.AdvanceDay();
  EXPECT_EQ(day1.admitted, 2);
  EXPECT_EQ(day1.rejected, 1);
  EXPECT_EQ(day1.admitted_per_category[0], 2);
  EXPECT_EQ(day1.admitted_per_category[1], 0);
}

TEST(SubscriptionTest, RevenueAccumulates) {
  SubscriptionManager mgr(DayWeek(), Pool(), 10.0, "cat", 1);
  ASSERT_TRUE(mgr.Submit(Req(1, 1, 50.0, {0}, 0)).ok());
  ASSERT_TRUE(mgr.Submit(Req(2, 2, 8.0, {1}, 0)).ok());
  const SubscriptionDayReport day1 = mgr.AdvanceDay();
  // Category capacity 5: q1 (load 2, density 25) admitted; q2 (load 3,
  // density 2.67) admitted too (2+3=5 fits) -> no loser -> payments 0.
  // Revenue may be zero; the ledger still tracks it consistently.
  EXPECT_DOUBLE_EQ(mgr.total_revenue(), day1.revenue);
  EXPECT_GE(mgr.total_revenue(), 0.0);
}

TEST(SubscriptionTest, SharedOperatorsAcrossCategoryMembersCount) {
  // Two daily requests share operator 2 (load 5): together they fit in
  // the 5-unit category slice only because of sharing.
  SubscriptionManager mgr(DayWeek(), Pool(), 10.0, "cat", 1);
  ASSERT_TRUE(mgr.Submit(Req(1, 1, 50.0, {2}, 0)).ok());
  ASSERT_TRUE(mgr.Submit(Req(2, 2, 40.0, {2}, 0)).ok());
  const SubscriptionDayReport day1 = mgr.AdvanceDay();
  EXPECT_EQ(day1.admitted, 2);
}

TEST(SubscriptionTest, PendingClearedEachDay) {
  SubscriptionManager mgr(DayWeek(), Pool(), 10.0, "cat", 1);
  ASSERT_TRUE(mgr.Submit(Req(1, 1, 0.5, {2}, 0)).ok());
  (void)mgr.AdvanceDay();
  const SubscriptionDayReport day2 = mgr.AdvanceDay();
  EXPECT_EQ(day2.admitted + day2.rejected, 0);
}

}  // namespace
}  // namespace streambid::cloud
