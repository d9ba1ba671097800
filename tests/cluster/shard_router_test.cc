// Copyright 2026 The streambid Authors
// ShardRouter policy tests: hash stability, capacity-relative
// least-loaded tie-breaking, and placement overrides.

#include "cluster/shard_router.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace streambid::cluster {
namespace {

stream::QuerySubmission SubmissionFor(auction::UserId user) {
  stream::QuerySubmission submission;
  submission.query_id = user;
  submission.user = user;
  submission.bid = 10.0;
  return submission;
}

TEST(ShardRouterTest, PolicyNames) {
  EXPECT_STREQ(RoutingPolicyName(RoutingPolicy::kHashUser), "hash");
  EXPECT_STREQ(RoutingPolicyName(RoutingPolicy::kLeastLoaded),
               "least-loaded");
}

TEST(ShardRouterTest, HashIsStableAndMatchesExposedHash) {
  ShardRouter router(RoutingPolicy::kHashUser, 4);
  const std::vector<ShardStatus> shards(4);
  for (auction::UserId user = 0; user < 200; ++user) {
    const int first = router.Route(SubmissionFor(user), shards);
    const int second = router.Route(SubmissionFor(user), shards);
    EXPECT_EQ(first, second) << user;
    EXPECT_EQ(first,
              static_cast<int>(ShardRouter::HashUser(user) % 4ull));
    EXPECT_GE(first, 0);
    EXPECT_LT(first, 4);
  }
}

TEST(ShardRouterTest, HashSpreadsUsersAcrossShards) {
  ShardRouter router(RoutingPolicy::kHashUser, 4);
  const std::vector<ShardStatus> shards(4);
  std::set<int> hit;
  for (auction::UserId user = 0; user < 64; ++user) {
    hit.insert(router.Route(SubmissionFor(user), shards));
  }
  // 64 sequential users over 4 shards: every shard must be reached (the
  // SplitMix64 finalizer spreads sequential ids).
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardRouterTest, HashIsObliviousToLoad) {
  ShardRouter router(RoutingPolicy::kHashUser, 2);
  std::vector<ShardStatus> shards(2);
  const int before = router.Route(SubmissionFor(7), shards);
  shards[static_cast<size_t>(before)].pending_load = 1e9;
  EXPECT_EQ(router.Route(SubmissionFor(7), shards), before);
}

TEST(ShardRouterTest, LeastLoadedPicksMinimum) {
  ShardRouter router(RoutingPolicy::kLeastLoaded, 3);
  std::vector<ShardStatus> shards(3);
  shards[0].pending_load = 5.0;
  shards[1].pending_load = 1.0;
  shards[2].pending_load = 3.0;
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 1);
}

TEST(ShardRouterTest, LeastLoadedTiesToLowestIndex) {
  ShardRouter router(RoutingPolicy::kLeastLoaded, 3);
  std::vector<ShardStatus> shards(3);
  // All equal: shard 0.
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 0);
  // Tie between 1 and 2: shard 1.
  shards[0].pending_load = 2.0;
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 1);
}

// --- Capacity-relative least-loaded: raw pending load must not make a
// shrunk autoscaled shard look as roomy as a full one. ---

TEST(ShardRouterTest, LeastLoadedComparesLoadRelativeToCapacity) {
  ShardRouter router(RoutingPolicy::kLeastLoaded, 2);
  std::vector<ShardStatus> shards(2);
  // Shard 0 holds more absolute load but is provisioned 8x larger:
  // relative 0.5 vs 1.0 — the big shard is the roomy one.
  shards[0].pending_load = 4.0;
  shards[0].next_capacity = 8.0;
  shards[1].pending_load = 1.0;
  shards[1].next_capacity = 1.0;
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 0);
  // Equal relative load (0.5 both): ties stay on the lowest index.
  shards[1].pending_load = 0.5;
  EXPECT_EQ(router.Route(SubmissionFor(1), shards), 0);
}

// --- Placement overrides: the rebalancer pins migrated tenants; every
// policy must follow the current placement, not the original hash. ---

TEST(ShardRouterTest, OverrideWinsUnderEveryPolicy) {
  std::vector<ShardStatus> shards(4);
  shards[2].pending_load = 1e9;  // Worst least-loaded choice.
  PlacementOverrides overrides;
  const auction::UserId user = 7;
  overrides[user] = 2;
  for (const RoutingPolicy policy :
       {RoutingPolicy::kHashUser, RoutingPolicy::kLeastLoaded}) {
    ShardRouter router(policy, 4);
    EXPECT_EQ(router.Route(SubmissionFor(user), shards, &overrides), 2)
        << RoutingPolicyName(policy);
    // Other users are unaffected.
    EXPECT_EQ(router.Route(SubmissionFor(user + 1), shards, &overrides),
              router.Route(SubmissionFor(user + 1), shards))
        << RoutingPolicyName(policy);
  }
}

}  // namespace
}  // namespace streambid::cluster
