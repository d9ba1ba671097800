// Copyright 2026 The streambid Authors

#include "auction/instance.h"

#include <cmath>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace streambid::auction {

Result<AuctionInstance> AuctionInstance::Create(
    std::vector<OperatorSpec> operators, std::vector<QuerySpec> queries) {
  const int num_ops = static_cast<int>(operators.size());
  for (int j = 0; j < num_ops; ++j) {
    const double load = operators[static_cast<size_t>(j)].load;
    if (!std::isfinite(load) || !(load > 0.0)) {
      return Status::InvalidArgument("operator " + std::to_string(j) +
                                     " has non-positive or non-finite load");
    }
  }
  std::unordered_set<OperatorId> seen;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QuerySpec& q = queries[i];
    if (!std::isfinite(q.bid) || q.bid < 0.0) {
      return Status::InvalidArgument("query " + std::to_string(i) +
                                     " has negative or non-finite bid");
    }
    if (q.operators.empty()) {
      return Status::InvalidArgument("query " + std::to_string(i) +
                                     " has no operators");
    }
    seen.clear();
    for (OperatorId j : q.operators) {
      if (j < 0 || j >= num_ops) {
        return Status::InvalidArgument(
            "query " + std::to_string(i) + " references unknown operator " +
            std::to_string(j));
      }
      if (!seen.insert(j).second) {
        return Status::InvalidArgument("query " + std::to_string(i) +
                                       " lists operator " +
                                       std::to_string(j) + " twice");
      }
    }
  }

  AuctionInstance inst;
  inst.operators_ = std::move(operators);
  inst.queries_ = std::move(queries);
  inst.BuildDerived();
  return inst;
}

void AuctionInstance::BuildDerived() {
  const size_t num_ops = operators_.size();
  const size_t num_queries = queries_.size();

  sharing_degree_.assign(num_ops, 0);
  op_queries_.assign(num_ops, {});
  for (size_t i = 0; i < num_queries; ++i) {
    for (OperatorId j : queries_[i].operators) {
      ++sharing_degree_[static_cast<size_t>(j)];
      op_queries_[static_cast<size_t>(j)].push_back(
          static_cast<QueryId>(i));
    }
  }

  total_load_.assign(num_queries, 0.0);
  fair_share_load_.assign(num_queries, 0.0);
  max_bid_ = 0.0;
  total_demand_ = 0.0;
  for (size_t i = 0; i < num_queries; ++i) {
    double ct = 0.0;
    double csf = 0.0;
    for (OperatorId j : queries_[i].operators) {
      const double load = operators_[static_cast<size_t>(j)].load;
      ct += load;
      csf += load / sharing_degree_[static_cast<size_t>(j)];
    }
    total_load_[i] = ct;
    fair_share_load_[i] = csf;
    total_demand_ += ct;
    if (queries_[i].bid > max_bid_) max_bid_ = queries_[i].bid;
  }

  total_union_load_ = 0.0;
  for (size_t j = 0; j < num_ops; ++j) {
    if (sharing_degree_[j] > 0) total_union_load_ += operators_[j].load;
  }
}

Result<AuctionInstance> AuctionInstance::WithExtraQueries(
    std::vector<QuerySpec> extra) const {
  std::vector<QuerySpec> all = queries_;
  for (auto& q : extra) all.push_back(std::move(q));
  return Create(operators_, std::move(all));
}

AuctionInstance AuctionInstance::WithBid(QueryId i, double new_bid) const {
  STREAMBID_CHECK(i >= 0 && i < num_queries());
  STREAMBID_CHECK(std::isfinite(new_bid) && new_bid >= 0.0);
  AuctionInstance copy = *this;
  copy.queries_[static_cast<size_t>(i)].bid = new_bid;
  if (new_bid > copy.max_bid_) {
    copy.max_bid_ = new_bid;
  } else {
    // Bid may have been the unique maximum; recompute.
    copy.max_bid_ = 0.0;
    for (const auto& q : copy.queries_) {
      if (q.bid > copy.max_bid_) copy.max_bid_ = q.bid;
    }
  }
  return copy;
}

Result<AuctionInstance> AuctionInstance::WithExtraOperators(
    std::vector<OperatorSpec> extra_ops,
    std::vector<QuerySpec> extra_queries) const {
  std::vector<OperatorSpec> ops = operators_;
  for (auto& o : extra_ops) ops.push_back(o);
  std::vector<QuerySpec> all = queries_;
  for (auto& q : extra_queries) all.push_back(std::move(q));
  return Create(std::move(ops), std::move(all));
}

std::string AuctionInstance::Summary() const {
  std::ostringstream out;
  out << "AuctionInstance{queries=" << num_queries()
      << ", operators=" << num_operators()
      << ", union_load=" << total_union_load_
      << ", total_demand=" << total_demand_ << ", max_bid=" << max_bid_
      << "}";
  return out.str();
}

}  // namespace streambid::auction
