// Copyright 2026 The streambid Authors
// The §VII extension: queries subscribing for different minimum lengths
// (day, week, month, ...). System capacity not committed to continuing
// subscriptions is partitioned among subscription categories each day,
// and an independent strategyproof auction runs per category — which
// keeps the scheme as a whole bid-strategyproof, as the paper argues.

#ifndef STREAMBID_CLOUD_SUBSCRIPTION_H_
#define STREAMBID_CLOUD_SUBSCRIPTION_H_

#include <string>
#include <vector>

#include "auction/instance.h"
#include "common/status.h"
#include "service/admission_service.h"

namespace streambid::cloud {

/// One subscription length class with its share of free capacity.
struct SubscriptionCategory {
  std::string name;          ///< "daily", "weekly", ...
  int length_days = 1;       ///< Subscription span.
  double capacity_fraction;  ///< Share of the *available* capacity.
};

/// A request to run an abstract query (a set of operators from the
/// manager's shared pool) for one subscription of a given category.
struct SubscriptionRequest {
  int request_id = 0;
  auction::UserId user = 0;
  double bid = 0.0;
  std::vector<auction::OperatorId> operators;
  int category = 0;  ///< Index into the category list.
};

/// A live subscription.
struct ActiveSubscription {
  int request_id = 0;
  auction::UserId user = 0;
  int category = 0;
  int expires_day = 0;  ///< First day it no longer runs.
  double payment = 0.0;
  std::vector<auction::OperatorId> operators;
};

/// Per-day outcome.
struct SubscriptionDayReport {
  int day = 0;
  double committed_load = 0.0;  ///< Load of continuing subscriptions.
  double available_capacity = 0.0;
  double revenue = 0.0;
  int admitted = 0;
  int rejected = 0;
  int expired = 0;
  /// Per-category admitted counts, aligned with the category list.
  std::vector<int> admitted_per_category;
};

/// Runs the §VII repeated per-category auctions over a shared operator
/// pool. Operator sharing is counted across ALL submissions of a day's
/// category auction (fair-share loads recomputed per auction, exactly
/// like the one-shot setting).
class SubscriptionManager {
 public:
  /// `operator_pool` defines the loads of every operator requests may
  /// reference (each finite and positive); `mechanism` names the
  /// per-category auction. `total_capacity` must be finite and positive.
  SubscriptionManager(std::vector<SubscriptionCategory> categories,
                      std::vector<auction::OperatorSpec> operator_pool,
                      double total_capacity, const std::string& mechanism,
                      uint64_t seed);

  /// Queues a request for the next day's auction. kInvalidArgument on
  /// an unknown category or operator, an empty or repeated operator
  /// list, or a negative or non-finite bid.
  Status Submit(const SubscriptionRequest& request);

  /// Advances one day: expires finished subscriptions, partitions the
  /// remaining capacity, and auctions each category's queue.
  SubscriptionDayReport AdvanceDay();

  const std::vector<ActiveSubscription>& active() const { return active_; }
  double total_revenue() const { return total_revenue_; }
  int today() const { return day_; }
  const std::vector<SubscriptionCategory>& categories() const {
    return categories_;
  }

  /// Capacity currently committed to continuing subscriptions (union
  /// load of their operators).
  double CommittedLoad() const;

 private:
  std::vector<SubscriptionCategory> categories_;
  std::vector<auction::OperatorSpec> pool_;
  double total_capacity_;
  std::string mechanism_;
  service::AdmissionService service_;
  uint64_t seed_;

  int day_ = 0;
  std::vector<SubscriptionRequest> pending_;
  std::vector<ActiveSubscription> active_;
  double total_revenue_ = 0.0;
};

}  // namespace streambid::cloud

#endif  // STREAMBID_CLOUD_SUBSCRIPTION_H_
