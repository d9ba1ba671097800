// Copyright 2026 The streambid Authors

#include "cloud/autoscaler.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace streambid::cloud {

namespace {

/// Candidate capacities evaluated per decision.
constexpr int kGridPoints = 5;
/// The grid spans estimate * [1 - kGridSpan, 1 + kGridSpan] (clamped
/// into the step and capacity bounds).
constexpr double kGridSpan = 0.5;
/// Demand estimate = mean windowed demand * kTargetHeadroom, i.e. the
/// tracker aims at utilization 1 / kTargetHeadroom.
constexpr double kTargetHeadroom = 1.25;
/// A candidate must beat the current capacity's net profit by this
/// fraction of |current net| to trigger a change — the second
/// hysteresis guard, so marginal wins do not cause thrash.
constexpr double kMinImprovementRatio = 0.02;
/// Averaging trials per candidate for randomized mechanisms.
constexpr int kTrials = 1;
/// Periods of history kept for the demand estimate.
constexpr size_t kWindow = 4;

}  // namespace

CapacityAutoscaler::CapacityAutoscaler(const AutoscalerOptions& options,
                                       double baseline_capacity)
    : options_(options), baseline_(baseline_capacity) {
  STREAMBID_CHECK_GT(baseline_capacity, 0.0);
  STREAMBID_CHECK_GT(options.min_capacity_ratio, 0.0);
  STREAMBID_CHECK_LE(options.min_capacity_ratio, 1.0);
  STREAMBID_CHECK_GE(options.min_dwell_periods, 1);
  STREAMBID_CHECK_GT(options.max_step_ratio, 0.0);
  capacity_ = baseline_;
  // The initial capacity has served no period yet, so the first
  // decision is free to move; thereafter the dwell counter tracks how
  // many periods the current capacity has served.
  periods_since_change_ = options_.min_dwell_periods;
}

void CapacityAutoscaler::Observe(const PeriodObservation& observation) {
  window_.push_back(observation);
  while (window_.size() > kWindow) {
    window_.pop_front();
  }
}

double CapacityAutoscaler::DemandEstimate() const {
  if (window_.empty()) return capacity_;
  double sum = 0.0;
  for (const PeriodObservation& obs : window_) {
    // Demand actually served by the engine, corrected for shedding: a
    // period that shed f of its arrivals saw true demand used/(1-f).
    double used = obs.measured_utilization * obs.provisioned_capacity;
    if (obs.shed_fraction > 0.0 && obs.shed_fraction < 1.0) {
      used /= (1.0 - obs.shed_fraction);
    }
    // The auction's view of the same period can exceed the engine
    // measurement (its load model is an estimate); track whichever
    // signal says demand was higher so shrinking stays conservative.
    used = std::max(used,
                    obs.auction_utilization * obs.provisioned_capacity);
    sum += used;
  }
  return sum / static_cast<double>(window_.size());
}

uint64_t CapacityAutoscaler::EvaluationSeed(uint64_t seed, int period) {
  // Salted away from the center's (seed, period) auction streams so a
  // what-if candidate run never replays the real auction's randomness.
  return Mix64(seed ^ 0xCA9AC17BA1A4CEull) +
         static_cast<uint64_t>(period);
}

Result<AutoscaleDecision> CapacityAutoscaler::Propose(
    service::AdmissionService& service, std::string_view mechanism,
    const auction::AuctionInstance* instance, uint64_t seed) {
  AutoscaleDecision decision;
  decision.period = decisions_;
  decision.previous_capacity = capacity_;
  decision.capacity = capacity_;
  decision.demand_estimate = DemandEstimate();

  // Hysteresis guard 1: the current capacity must serve at least
  // min_dwell_periods periods before the controller may move again.
  if (periods_since_change_ < options_.min_dwell_periods) {
    decision.reason = "dwell";
    ++periods_since_change_;
    ++decisions_;
    return decision;
  }

  // The per-step move window: capacity bounds intersected with the
  // max-step band around the current capacity.
  const double step_lo =
      std::max(min_capacity(), capacity_ * (1.0 - options_.max_step_ratio));
  const double step_hi =
      std::min(max_capacity(), capacity_ * (1.0 + options_.max_step_ratio));

  double next = capacity_;
  if (instance == nullptr) {
    // Idle period: no auction to price, so every candidate earns 0 and
    // the greenest allowed capacity wins — shrink at the step limit.
    next = step_lo;
    decision.reason = "idle";
  } else {
    // Candidate grid centered on the demand estimate, clamped into the
    // move window; the current capacity is always a candidate so "hold"
    // competes on equal terms (and the improvement guard has a
    // reference evaluation).
    const double center =
        std::clamp(decision.demand_estimate * kTargetHeadroom,
                   step_lo, step_hi);
    std::vector<double> candidates;
    candidates.reserve(static_cast<size_t>(kGridPoints) + 1);
    for (int i = 0; i < kGridPoints; ++i) {
      const double f =
          -kGridSpan +
          2.0 * kGridSpan * static_cast<double>(i) /
              static_cast<double>(kGridPoints - 1);
      candidates.push_back(
          std::clamp(center * (1.0 + f), step_lo, step_hi));
    }
    candidates.push_back(capacity_);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    STREAMBID_ASSIGN_OR_RETURN(
        const std::vector<CapacityEvaluation> evals,
        EvaluateCapacities(service, mechanism, *instance, candidates,
                           options_.energy,
                           EvaluationSeed(seed, decision.period),
                           kTrials));
    const CapacityEvaluation& best = BestEvaluation(evals);
    const CapacityEvaluation* current = nullptr;
    for (const CapacityEvaluation& e : evals) {
      if (e.capacity == capacity_) current = &e;
    }
    STREAMBID_CHECK(current != nullptr);
    decision.evaluated = true;
    // Hysteresis guard 2: moving must beat holding by a margin.
    const double hurdle =
        current->net_profit +
        kMinImprovementRatio * std::abs(current->net_profit);
    if (best.capacity != capacity_ && best.net_profit > hurdle) {
      next = best.capacity;
      decision.expected_net_profit = best.net_profit;
    } else {
      decision.expected_net_profit = current->net_profit;
    }
    decision.reason = "optimized";
  }

  decision.capacity = next;
  decision.changed = next != capacity_;
  if (decision.changed) {
    capacity_ = next;
    periods_since_change_ = 1;  // Serves its first period now.
  } else {
    ++periods_since_change_;
  }
  ++decisions_;
  return decision;
}

}  // namespace streambid::cloud
