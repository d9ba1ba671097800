// Copyright 2026 The streambid Authors
// Routing of query submissions across the shards of a multi-center
// deployment. The router is a pure policy: it sees one submission plus a
// status snapshot per shard (pending load, next-period capacity) and
// picks a shard index. Two policies:
//
//  - hash(user): stable user -> shard assignment, oblivious to load;
//  - least-loaded: the shard with the lowest pending auction load
//    relative to its next-period capacity (ties to the lowest index),
//    balancing the next auction's demand — a shrunk autoscaled shard
//    must not look as roomy as a fully provisioned one.
//
// Both policies respect placement overrides first: the rebalancer pins
// a migrated tenant to its new home, and routing must follow the
// current placement, not the original hash.

#ifndef STREAMBID_CLUSTER_SHARD_ROUTER_H_
#define STREAMBID_CLUSTER_SHARD_ROUTER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "auction/types.h"
#include "stream/load_estimator.h"

namespace streambid::cluster {

/// Shard-selection policy.
enum class RoutingPolicy {
  kHashUser,
  kLeastLoaded,
};

/// Stable lowercase name ("hash", "least-loaded").
const char* RoutingPolicyName(RoutingPolicy policy);

/// What the router knows about one shard when routing. Maintained by the
/// ClusterCenter: pending_load resets and next_capacity refreshes at
/// each period close.
struct ShardStatus {
  double pending_load = 0.0;  ///< Estimated load of pending submissions.
  /// Capacity the shard is provisioned at for the next period (the
  /// autoscaler's latest decision). Always positive under a
  /// ClusterCenter, whose engines CHECK every capacity they run at; a
  /// hand-built status compares at capacity 1.
  double next_capacity = 1.0;
};

/// Current tenant placements pinned by the rebalancer: user -> shard.
/// Users absent from the map place by policy.
using PlacementOverrides = std::unordered_map<auction::UserId, int>;

/// Stateless shard selector. Thread-compatible (const after
/// construction).
class ShardRouter {
 public:
  /// Precondition (checked): num_shards >= 1.
  ShardRouter(RoutingPolicy policy, int num_shards);

  /// Picks the shard for `submission` given the current shard statuses
  /// and (optionally) the rebalancer's placement overrides. An override
  /// wins under every policy — a migrated tenant is pinned to its new
  /// home.
  /// Precondition (checked): shards.size() == num_shards().
  int Route(const stream::QuerySubmission& submission,
            const std::vector<ShardStatus>& shards,
            const PlacementOverrides* overrides = nullptr) const;

  RoutingPolicy policy() const { return policy_; }
  int num_shards() const { return num_shards_; }

  /// The stable user hash (SplitMix64 finalizer) behind kHashUser —
  /// exposed so tests and rebalancing tooling can predict placements.
  static uint64_t HashUser(auction::UserId user);

 private:
  RoutingPolicy policy_;
  int num_shards_;
};

}  // namespace streambid::cluster

#endif  // STREAMBID_CLUSTER_SHARD_ROUTER_H_
