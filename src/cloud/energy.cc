// Copyright 2026 The streambid Authors

#include "cloud/energy.h"

#include <cmath>
#include <string>

#include "auction/metrics.h"
#include "common/check.h"

namespace streambid::cloud {

Result<std::vector<CapacityEvaluation>> EvaluateCapacities(
    service::AdmissionService& service, std::string_view mechanism,
    const auction::AuctionInstance& instance,
    const std::vector<double>& candidate_capacities,
    const EnergyModel& energy, uint64_t seed, int trials) {
  if (candidate_capacities.empty()) {
    return Status::InvalidArgument("no candidate capacities");
  }
  if (trials < 1) {
    return Status::InvalidArgument("trials must be >= 1, got " +
                                   std::to_string(trials));
  }
  for (size_t i = 0; i < candidate_capacities.size(); ++i) {
    const double capacity = candidate_capacities[i];
    if (!(capacity > 0.0) || !std::isfinite(capacity)) {
      return Status::InvalidArgument(
          "candidate capacity " + std::to_string(i) +
          " must be positive and finite, got " + std::to_string(capacity));
    }
  }

  // One batch over capacities x trials; each request keeps its own
  // deterministic stream so the sweep is order-independent.
  std::vector<service::AdmissionRequest> requests;
  requests.reserve(candidate_capacities.size() *
                   static_cast<size_t>(trials));
  for (double capacity : candidate_capacities) {
    for (int t = 0; t < trials; ++t) {
      service::AdmissionRequest request;
      request.instance = &instance;
      request.capacity = capacity;
      request.mechanism = std::string(mechanism);
      request.seed = seed;
      request.request_index = static_cast<uint32_t>(t);
      requests.push_back(std::move(request));
    }
  }
  STREAMBID_ASSIGN_OR_RETURN(
      const std::vector<service::AdmissionResponse> responses,
      service.AdmitBatch(requests));

  std::vector<CapacityEvaluation> out;
  out.reserve(candidate_capacities.size());
  size_t r = 0;
  for (double capacity : candidate_capacities) {
    CapacityEvaluation eval;
    eval.capacity = capacity;
    double profit = 0.0, used = 0.0, admitted = 0.0;
    for (int t = 0; t < trials; ++t, ++r) {
      const service::AdmissionResponse& response = responses[r];
      profit += response.metrics.profit;
      used += auction::UsedCapacity(instance, response.allocation);
      admitted += response.allocation.NumAdmitted();
    }
    eval.gross_profit = profit / trials;
    const double mean_used = used / trials;
    eval.utilization = capacity > 0.0 ? mean_used / capacity : 0.0;
    eval.energy_cost = energy.PeriodCost(capacity, mean_used);
    eval.net_profit = eval.gross_profit - eval.energy_cost;
    eval.admitted = static_cast<int>(admitted / trials);
    out.push_back(eval);
  }
  return out;
}

const CapacityEvaluation& BestEvaluation(
    const std::vector<CapacityEvaluation>& evaluations) {
  STREAMBID_CHECK(!evaluations.empty());
  const CapacityEvaluation* best = &evaluations[0];
  for (const CapacityEvaluation& e : evaluations) {
    if (e.net_profit > best->net_profit ||
        (e.net_profit == best->net_profit &&
         e.capacity < best->capacity)) {
      best = &e;
    }
  }
  return *best;
}

Result<CapacityEvaluation> OptimizeCapacity(
    service::AdmissionService& service, std::string_view mechanism,
    const auction::AuctionInstance& instance,
    const std::vector<double>& candidate_capacities,
    const EnergyModel& energy, uint64_t seed, int trials) {
  STREAMBID_ASSIGN_OR_RETURN(
      const std::vector<CapacityEvaluation> evals,
      EvaluateCapacities(service, mechanism, instance,
                         candidate_capacities, energy, seed, trials));
  return BestEvaluation(evals);
}

}  // namespace streambid::cloud
