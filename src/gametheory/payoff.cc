// Copyright 2026 The streambid Authors

#include "gametheory/payoff.h"

#include "common/check.h"

namespace streambid::gametheory {

double UserPayoff(const auction::AuctionInstance& instance,
                  const auction::Allocation& alloc,
                  const std::vector<double>& values,
                  auction::UserId user) {
  STREAMBID_CHECK_EQ(static_cast<int>(values.size()),
                     instance.num_queries());
  double payoff = 0.0;
  for (auction::QueryId i = 0; i < instance.num_queries(); ++i) {
    if (instance.user(i) != user) continue;
    if (!alloc.IsAdmitted(i)) continue;
    payoff += values[static_cast<size_t>(i)] - alloc.Payment(i);
  }
  return payoff;
}

auction::Allocation RunAuction(service::AdmissionService& service,
                               std::string_view mechanism,
                               const auction::AuctionInstance& instance,
                               double capacity, uint64_t seed,
                               uint32_t trial) {
  service::AdmissionRequest request;
  request.instance = &instance;
  request.capacity = capacity;
  request.mechanism = std::string(mechanism);
  request.seed = seed;
  request.request_index = trial;
  request.options.compute_metrics = false;
  auto response = service.Admit(request);
  STREAMBID_CHECK(response.ok());
  return std::move(response).value().allocation;
}

double ExpectedUserPayoff(service::AdmissionService& service,
                          std::string_view mechanism,
                          const auction::AuctionInstance& instance,
                          double capacity,
                          const std::vector<double>& values,
                          auction::UserId user, uint64_t seed,
                          int trials) {
  STREAMBID_CHECK_GT(trials, 0);
  // One request object reused across trials; only the replica index
  // changes, so high-trial expectations skip per-call setup.
  service::AdmissionRequest request;
  request.instance = &instance;
  request.capacity = capacity;
  request.mechanism = std::string(mechanism);
  request.seed = seed;
  request.options.compute_metrics = false;
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    request.request_index = static_cast<uint32_t>(t);
    auto response = service.Admit(request);
    STREAMBID_CHECK(response.ok());
    total += UserPayoff(instance, response->allocation, values, user);
  }
  return total / trials;
}

std::vector<double> TruthfulValues(
    const auction::AuctionInstance& instance) {
  std::vector<double> values(static_cast<size_t>(instance.num_queries()));
  for (auction::QueryId i = 0; i < instance.num_queries(); ++i) {
    values[static_cast<size_t>(i)] = instance.bid(i);
  }
  return values;
}

}  // namespace streambid::gametheory
