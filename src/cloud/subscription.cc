// Copyright 2026 The streambid Authors

#include "cloud/subscription.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace streambid::cloud {

SubscriptionManager::SubscriptionManager(
    std::vector<SubscriptionCategory> categories,
    std::vector<auction::OperatorSpec> operator_pool, double total_capacity,
    const std::string& mechanism, uint64_t seed)
    : categories_(std::move(categories)),
      pool_(std::move(operator_pool)),
      total_capacity_(total_capacity),
      mechanism_(mechanism),
      seed_(seed) {
  STREAMBID_CHECK(!categories_.empty());
  STREAMBID_CHECK(std::isfinite(total_capacity_));
  STREAMBID_CHECK_GT(total_capacity_, 0.0);
  // AdvanceDay CHECKs that every day's instance builds, so the pool
  // must already pass AuctionInstance::Create's load checks here.
  for (const auction::OperatorSpec& op : pool_) {
    STREAMBID_CHECK(std::isfinite(op.load));
    STREAMBID_CHECK_GT(op.load, 0.0);
  }
  double fractions = 0.0;
  for (const auto& c : categories_) {
    STREAMBID_CHECK_GT(c.length_days, 0);
    STREAMBID_CHECK_GE(c.capacity_fraction, 0.0);
    fractions += c.capacity_fraction;
  }
  STREAMBID_CHECK_LE(fractions, 1.0 + 1e-9);
  STREAMBID_CHECK(service_.HasMechanism(mechanism_));
}

Status SubscriptionManager::Submit(const SubscriptionRequest& request) {
  if (request.category < 0 ||
      request.category >= static_cast<int>(categories_.size())) {
    return Status::InvalidArgument("unknown category");
  }
  if (request.operators.empty()) {
    return Status::InvalidArgument("request has no operators");
  }
  // AdvanceDay CHECKs that the day's instance builds, so accept only
  // what AuctionInstance::Create accepts.
  std::vector<bool> listed(pool_.size(), false);
  for (auction::OperatorId j : request.operators) {
    if (j < 0 || j >= static_cast<auction::OperatorId>(pool_.size())) {
      return Status::InvalidArgument("unknown operator " +
                                     std::to_string(j));
    }
    if (listed[static_cast<size_t>(j)]) {
      return Status::InvalidArgument("operator " + std::to_string(j) +
                                     " listed twice");
    }
    listed[static_cast<size_t>(j)] = true;
  }
  if (!std::isfinite(request.bid) || request.bid < 0.0) {
    return Status::InvalidArgument("negative or non-finite bid");
  }
  pending_.push_back(request);
  return Status::Ok();
}

double SubscriptionManager::CommittedLoad() const {
  std::vector<bool> used(pool_.size(), false);
  double load = 0.0;
  for (const ActiveSubscription& sub : active_) {
    for (auction::OperatorId j : sub.operators) {
      auto idx = static_cast<size_t>(j);
      if (!used[idx]) {
        used[idx] = true;
        load += pool_[idx].load;
      }
    }
  }
  return load;
}

SubscriptionDayReport SubscriptionManager::AdvanceDay() {
  ++day_;
  SubscriptionDayReport report;
  report.day = day_;

  // Expire subscriptions whose span ended; their capacity is reclaimed.
  const auto expired_begin = std::stable_partition(
      active_.begin(), active_.end(), [this](const ActiveSubscription& s) {
        return s.expires_day > day_;
      });
  report.expired = static_cast<int>(active_.end() - expired_begin);
  active_.erase(expired_begin, active_.end());

  report.committed_load = CommittedLoad();
  report.available_capacity =
      std::max(0.0, total_capacity_ - report.committed_load);
  report.admitted_per_category.assign(categories_.size(), 0);

  // Partition the available capacity and auction each category
  // independently (§VII: separate strategyproof auctions compose).
  std::vector<SubscriptionRequest> leftover;
  for (size_t c = 0; c < categories_.size(); ++c) {
    const double category_capacity =
        report.available_capacity * categories_[c].capacity_fraction;

    std::vector<SubscriptionRequest> batch;
    for (const SubscriptionRequest& r : pending_) {
      if (r.category == static_cast<int>(c)) batch.push_back(r);
    }
    if (batch.empty()) continue;

    std::vector<auction::QuerySpec> queries;
    queries.reserve(batch.size());
    for (const SubscriptionRequest& r : batch) {
      queries.push_back({r.user, r.bid, r.operators});
    }
    auto instance = auction::AuctionInstance::Create(pool_, queries);
    STREAMBID_CHECK(instance.ok());
    service::AdmissionRequest request;
    request.instance = &*instance;
    request.capacity = category_capacity;
    request.mechanism = mechanism_;
    request.seed = seed_;
    // Stable (day, category) replica index: a category auction's RNG
    // stream must not shift when other categories or earlier days had
    // empty queues, so every per-category outcome replays in isolation.
    request.request_index =
        static_cast<uint32_t>(day_) * static_cast<uint32_t>(
                                          categories_.size()) +
        static_cast<uint32_t>(c);
    request.options.compute_metrics = false;
    auto response = service_.Admit(request);
    STREAMBID_CHECK(response.ok());
    const auction::Allocation& alloc = response->allocation;

    for (size_t i = 0; i < batch.size(); ++i) {
      const auto qid = static_cast<auction::QueryId>(i);
      if (alloc.IsAdmitted(qid)) {
        ActiveSubscription sub;
        sub.request_id = batch[i].request_id;
        sub.user = batch[i].user;
        sub.category = static_cast<int>(c);
        sub.expires_day = day_ + categories_[c].length_days;
        sub.payment = alloc.Payment(qid);
        sub.operators = batch[i].operators;
        active_.push_back(std::move(sub));
        total_revenue_ += alloc.Payment(qid);
        report.revenue += alloc.Payment(qid);
        ++report.admitted;
        ++report.admitted_per_category[c];
      } else {
        ++report.rejected;
      }
    }
  }
  pending_.clear();
  return report;
}

}  // namespace streambid::cloud
