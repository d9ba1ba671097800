// Copyright 2026 The streambid Authors

#include "cluster/shard_router.h"

#include "common/check.h"
#include "common/rng.h"

namespace streambid::cluster {

namespace {

/// Pending load relative to the shard's next-period capacity.
double RelativeLoad(const ShardStatus& status) {
  return status.pending_load / status.next_capacity;
}

}  // namespace

const char* RoutingPolicyName(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kHashUser:
      return "hash";
    case RoutingPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "unknown";
}

ShardRouter::ShardRouter(RoutingPolicy policy, int num_shards)
    : policy_(policy), num_shards_(num_shards) {
  STREAMBID_CHECK_GE(num_shards, 1);
}

uint64_t ShardRouter::HashUser(auction::UserId user) {
  // User ids are typically small and sequential; Mix64 spreads them
  // evenly over shards.
  return Mix64(static_cast<uint64_t>(static_cast<int64_t>(user)) +
               0x9E3779B97F4A7C15ull);
}

int ShardRouter::Route(const stream::QuerySubmission& submission,
                       const std::vector<ShardStatus>& shards,
                       const PlacementOverrides* overrides) const {
  STREAMBID_CHECK_EQ(static_cast<int>(shards.size()), num_shards_);
  // A pinned placement wins under every policy: the rebalancer moved
  // this tenant's state, so routing anywhere else would re-split it.
  if (overrides != nullptr) {
    const auto it = overrides->find(submission.user);
    if (it != overrides->end()) {
      STREAMBID_CHECK_GE(it->second, 0);
      STREAMBID_CHECK_LT(it->second, num_shards_);
      return it->second;
    }
  }
  switch (policy_) {
    case RoutingPolicy::kHashUser:
      return static_cast<int>(HashUser(submission.user) %
                              static_cast<uint64_t>(num_shards_));

    case RoutingPolicy::kLeastLoaded: {
      int best = 0;
      for (int s = 1; s < num_shards_; ++s) {
        // Load relative to next-period capacity: a half-sized shard
        // with half the pending load is exactly as full, not roomier.
        // Strict <: ties stay on the lowest index (deterministic).
        if (RelativeLoad(shards[static_cast<size_t>(s)]) <
            RelativeLoad(shards[static_cast<size_t>(best)])) {
          best = s;
        }
      }
      return best;
    }
  }
  STREAMBID_CHECK(false);
  return 0;
}

}  // namespace streambid::cluster
