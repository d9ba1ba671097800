// Copyright 2026 The streambid Authors

#include "auction/instance.h"

#include <gtest/gtest.h>

#include <limits>

namespace streambid::auction {
namespace {

std::vector<OperatorSpec> Ops(std::initializer_list<double> loads) {
  std::vector<OperatorSpec> ops;
  for (double l : loads) ops.push_back({l});
  return ops;
}

TEST(AuctionInstanceTest, CreateValidatesOperatorReferences) {
  auto r = AuctionInstance::Create(Ops({1.0}), {{0, 5.0, {3}}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(AuctionInstanceTest, CreateRejectsNonPositiveLoad) {
  auto r = AuctionInstance::Create(Ops({0.0}), {{0, 5.0, {0}}});
  EXPECT_FALSE(r.ok());
  auto r2 = AuctionInstance::Create(Ops({-1.0}), {{0, 5.0, {0}}});
  EXPECT_FALSE(r2.ok());
}

TEST(AuctionInstanceTest, CreateRejectsNegativeBid) {
  auto r = AuctionInstance::Create(Ops({1.0}), {{0, -5.0, {0}}});
  EXPECT_FALSE(r.ok());
}

TEST(AuctionInstanceTest, CreateRejectsNonFiniteBidAndLoad) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    auto bid = AuctionInstance::Create(Ops({1.0}), {{0, bad, {0}}});
    EXPECT_EQ(bid.status().code(), StatusCode::kInvalidArgument) << bad;
    auto load = AuctionInstance::Create(Ops({bad}), {{0, 5.0, {0}}});
    EXPECT_EQ(load.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(AuctionInstanceTest, CreateRejectsEmptyQuery) {
  auto r = AuctionInstance::Create(Ops({1.0}), {{0, 5.0, {}}});
  EXPECT_FALSE(r.ok());
}

TEST(AuctionInstanceTest, CreateRejectsDuplicateOperatorInQuery) {
  auto r = AuctionInstance::Create(Ops({1.0}), {{0, 5.0, {0, 0}}});
  EXPECT_FALSE(r.ok());
}

TEST(AuctionInstanceTest, DerivedQuantities) {
  // Two queries share op0 (load 4); q0 also has op1 (load 2), q1 op2 (6).
  auto r = AuctionInstance::Create(
      Ops({4.0, 2.0, 6.0}), {{0, 10.0, {0, 1}}, {1, 20.0, {0, 2}}});
  ASSERT_TRUE(r.ok());
  const AuctionInstance& inst = *r;
  EXPECT_EQ(inst.num_queries(), 2);
  EXPECT_EQ(inst.num_operators(), 3);
  EXPECT_EQ(inst.sharing_degree(0), 2);
  EXPECT_EQ(inst.sharing_degree(1), 1);
  EXPECT_DOUBLE_EQ(inst.total_load(0), 6.0);
  EXPECT_DOUBLE_EQ(inst.total_load(1), 10.0);
  EXPECT_DOUBLE_EQ(inst.fair_share_load(0), 4.0);   // 4/2 + 2.
  EXPECT_DOUBLE_EQ(inst.fair_share_load(1), 8.0);   // 4/2 + 6.
  EXPECT_DOUBLE_EQ(inst.total_union_load(), 12.0);  // 4 + 2 + 6.
  EXPECT_DOUBLE_EQ(inst.total_demand(), 16.0);      // 6 + 10.
  EXPECT_DOUBLE_EQ(inst.max_bid(), 20.0);
  ASSERT_EQ(inst.operator_queries(0).size(), 2u);
  EXPECT_EQ(inst.operator_queries(0)[0], 0);
  EXPECT_EQ(inst.operator_queries(0)[1], 1);
}

TEST(AuctionInstanceTest, UnreferencedOperatorNotInUnionLoad) {
  auto r = AuctionInstance::Create(Ops({4.0, 9.0}), {{0, 10.0, {0}}});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->total_union_load(), 4.0);
  EXPECT_EQ(r->sharing_degree(1), 0);
}

TEST(AuctionInstanceTest, WithBidReplacesBidAndMaxBid) {
  auto r = AuctionInstance::Create(Ops({1.0}),
                                   {{0, 5.0, {0}}, {1, 9.0, {0}}});
  ASSERT_TRUE(r.ok());
  AuctionInstance lowered = r->WithBid(1, 2.0);
  EXPECT_DOUBLE_EQ(lowered.bid(1), 2.0);
  EXPECT_DOUBLE_EQ(lowered.max_bid(), 5.0);
  AuctionInstance raised = r->WithBid(0, 50.0);
  EXPECT_DOUBLE_EQ(raised.max_bid(), 50.0);
  // Original untouched.
  EXPECT_DOUBLE_EQ(r->bid(1), 9.0);
}

TEST(AuctionInstanceDeathTest, WithBidChecksIndexAndBid) {
  auto r = AuctionInstance::Create(Ops({1.0}),
                                   {{0, 5.0, {0}}, {1, 9.0, {0}}});
  ASSERT_TRUE(r.ok());
  EXPECT_DEATH(r->WithBid(-1, 1.0), "CHECK failed");
  EXPECT_DEATH(r->WithBid(2, 1.0), "CHECK failed");
  EXPECT_DEATH(r->WithBid(0, -1.0), "CHECK failed");
  EXPECT_DEATH(r->WithBid(0, std::numeric_limits<double>::infinity()),
               "CHECK failed");
  EXPECT_DEATH(r->WithBid(0, std::numeric_limits<double>::quiet_NaN()),
               "CHECK failed");
}

TEST(AuctionInstanceTest, WithExtraQueriesRecomputesFairShare) {
  auto r = AuctionInstance::Create(Ops({4.0}), {{0, 10.0, {0}}});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->fair_share_load(0), 4.0);
  auto grown = r->WithExtraQueries({{1, 0.001, {0}}});
  ASSERT_TRUE(grown.ok());
  // Operator now shared by two queries: CSF halves. This shift is the
  // mechanics of the §V-A sybil attack.
  EXPECT_DOUBLE_EQ(grown->fair_share_load(0), 2.0);
  EXPECT_EQ(grown->num_queries(), 2);
}

TEST(AuctionInstanceTest, WithExtraOperatorsExtendsPool) {
  auto r = AuctionInstance::Create(Ops({4.0}), {{0, 10.0, {0}}});
  ASSERT_TRUE(r.ok());
  auto grown = r->WithExtraOperators({{2.5}}, {{1, 1.0, {1}}});
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->num_operators(), 2);
  EXPECT_DOUBLE_EQ(grown->operator_load(1), 2.5);
  EXPECT_DOUBLE_EQ(grown->total_union_load(), 6.5);
}

TEST(AuctionInstanceTest, SummaryMentionsCounts) {
  auto r = AuctionInstance::Create(Ops({1.0}), {{0, 5.0, {0}}});
  ASSERT_TRUE(r.ok());
  const std::string s = r->Summary();
  EXPECT_NE(s.find("queries=1"), std::string::npos);
  EXPECT_NE(s.find("operators=1"), std::string::npos);
}

TEST(AuctionInstanceTest, EmptyInstanceIsValid) {
  auto r = AuctionInstance::Create({}, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_queries(), 0);
  EXPECT_DOUBLE_EQ(r->max_bid(), 0.0);
}

}  // namespace
}  // namespace streambid::auction
