// Copyright 2026 The streambid Authors
// Immutable auction input: the operator pool, per-operator loads, the
// query -> operator mapping, and user bids (paper §II, Figure 2), plus the
// derived quantities every mechanism needs: sharing degrees l_j, total
// loads CT_i, and static fair-share loads CSF_i (Definition 3).

#ifndef STREAMBID_AUCTION_INSTANCE_H_
#define STREAMBID_AUCTION_INSTANCE_H_

#include <string>
#include <vector>

#include "auction/types.h"
#include "common/status.h"

namespace streambid::auction {

/// Validated, immutable instance of the CQ admission problem.
///
/// Construction validates that every operator referenced by a query
/// exists, loads are positive, bids are non-negative, and each query has
/// at least one operator. Derived arrays (sharing degrees, CT, CSF,
/// operator->query incidence) are precomputed once; mechanisms treat the
/// instance as read-only, so a single instance can be auctioned at many
/// capacities and shared across threads.
class AuctionInstance {
 public:
  /// Builds and validates an instance. Errors:
  /// - kInvalidArgument: bad operator reference, non-positive or
  ///   non-finite load, negative or non-finite bid, duplicate operator
  ///   within one query, empty query.
  static Result<AuctionInstance> Create(std::vector<OperatorSpec> operators,
                                        std::vector<QuerySpec> queries);

  int num_queries() const { return static_cast<int>(queries_.size()); }
  int num_operators() const { return static_cast<int>(operators_.size()); }

  /// Load c_j of operator j.
  double operator_load(OperatorId j) const {
    return operators_[static_cast<size_t>(j)].load;
  }

  /// Number of submitted queries sharing operator j (l_j >= 0; zero for
  /// operators no query references).
  int sharing_degree(OperatorId j) const {
    return sharing_degree_[static_cast<size_t>(j)];
  }

  /// The queries that contain operator j.
  const std::vector<QueryId>& operator_queries(OperatorId j) const {
    return op_queries_[static_cast<size_t>(j)];
  }

  const std::vector<OperatorId>& query_operators(QueryId i) const {
    return queries_[static_cast<size_t>(i)].operators;
  }

  double bid(QueryId i) const { return queries_[static_cast<size_t>(i)].bid; }
  UserId user(QueryId i) const {
    return queries_[static_cast<size_t>(i)].user;
  }

  /// Total load CT_i = sum of the loads of the query's operators.
  double total_load(QueryId i) const {
    return total_load_[static_cast<size_t>(i)];
  }

  /// Static fair-share load CSF_i = sum of c_j / l_j (Definition 3).
  double fair_share_load(QueryId i) const {
    return fair_share_load_[static_cast<size_t>(i)];
  }

  /// Sum of the loads of all operators referenced by at least one query:
  /// the capacity needed to admit everyone (with full sharing).
  double total_union_load() const { return total_union_load_; }

  /// Sum over queries of CT_i: the paper's "total query demand".
  double total_demand() const { return total_demand_; }

  /// Largest bid h (0 for an empty instance), used by the Two-price
  /// profit bound (Theorems 11/12).
  double max_bid() const { return max_bid_; }

  /// Returns a copy of this instance with extra queries appended (used by
  /// the sybil-attack harness; sharing degrees and fair shares are
  /// recomputed, which is exactly how a sybil attack shifts CSF).
  Result<AuctionInstance> WithExtraQueries(
      std::vector<QuerySpec> extra) const;

  /// Returns a copy with query i's bid replaced (deviation testing).
  /// Preconditions (checked): 0 <= i < num_queries(), and `new_bid` is
  /// finite and non-negative, as Create requires of every bid.
  AuctionInstance WithBid(QueryId i, double new_bid) const;

  /// Returns a copy with operators appended (attackers may introduce new
  /// private operators for their fake queries).
  Result<AuctionInstance> WithExtraOperators(
      std::vector<OperatorSpec> extra_ops,
      std::vector<QuerySpec> extra_queries) const;

  const std::vector<QuerySpec>& queries() const { return queries_; }
  const std::vector<OperatorSpec>& operators() const { return operators_; }

  /// Human-readable one-line summary (for logs and examples).
  std::string Summary() const;

 private:
  AuctionInstance() = default;
  void BuildDerived();

  std::vector<OperatorSpec> operators_;
  std::vector<QuerySpec> queries_;

  // Derived.
  std::vector<int> sharing_degree_;             // l_j per operator
  std::vector<std::vector<QueryId>> op_queries_;  // incidence
  std::vector<double> total_load_;              // CT_i
  std::vector<double> fair_share_load_;         // CSF_i
  double total_union_load_ = 0.0;
  double total_demand_ = 0.0;
  double max_bid_ = 0.0;
};

}  // namespace streambid::auction

#endif  // STREAMBID_AUCTION_INSTANCE_H_
