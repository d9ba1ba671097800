// Copyright 2026 The streambid Authors

#include "gate/throughput_probe.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace streambid::gate {

namespace {

/// Probe step as a fraction of the stable concurrency: a probe epoch
/// runs at round(stable * (1 ± kStepRatio)), at least one away.
constexpr double kStepRatio = 0.25;
/// Weight of the newest stable observation in the moving average.
constexpr double kEmaWeight = 0.5;

}  // namespace

const char* ProbeStateName(ProbeState state) {
  switch (state) {
    case ProbeState::kStable:
      return "stable";
    case ProbeState::kProbingUp:
      return "probe-up";
    case ProbeState::kProbingDown:
      return "probe-down";
  }
  return "unknown";
}

ThroughputProbe::ThroughputProbe(const ProbeOptions& options)
    : options_(options) {
  STREAMBID_CHECK_GE(options.min_concurrency, 1);
  STREAMBID_CHECK_GE(options.max_concurrency, options.min_concurrency);
  stable_ = std::clamp(options.initial_concurrency, options.min_concurrency,
                       options.max_concurrency);
  concurrency_ = stable_;
}

int ThroughputProbe::ClampStep(double target) const {
  const int rounded = static_cast<int>(std::lround(target));
  return std::clamp(rounded, options_.min_concurrency,
                    options_.max_concurrency);
}

int ThroughputProbe::StepUp() const {
  // At least one ticket above stable, clamped to the max.
  const double target = stable_ * (1.0 + kStepRatio);
  return std::max(ClampStep(target),
                  std::min(stable_ + 1, options_.max_concurrency));
}

int ThroughputProbe::StepDown() const {
  const double target = stable_ * (1.0 - kStepRatio);
  return std::min(ClampStep(target),
                  std::max(stable_ - 1, options_.min_concurrency));
}

ProbeDecision ThroughputProbe::Observe(double throughput) {
  ProbeDecision decision;
  decision.epoch = epochs_;
  decision.throughput = throughput;

  switch (state_) {
    case ProbeState::kStable: {
      // Blend the stable observation into the moving average the probe
      // epochs will be judged against.
      if (!has_ema_) {
        ema_ = throughput;
        has_ema_ = true;
      } else {
        ema_ = kEmaWeight * throughput + (1.0 - kEmaWeight) * ema_;
      }
      const int up = StepUp();
      const int down = StepDown();
      const bool can_up = up > stable_;
      const bool can_down = down < stable_;
      if (can_up && can_down) {
        // Seeded coin so the direction sequence replays byte-identically.
        const bool go_up =
            (Mix64(options_.seed ^ static_cast<uint64_t>(epochs_)) & 1) == 0;
        state_ = go_up ? ProbeState::kProbingUp : ProbeState::kProbingDown;
        concurrency_ = go_up ? up : down;
        decision.reason = go_up ? "probe-up" : "probe-down";
      } else if (can_up) {
        state_ = ProbeState::kProbingUp;
        concurrency_ = up;
        decision.reason = "probe-up";
      } else if (can_down) {
        state_ = ProbeState::kProbingDown;
        concurrency_ = down;
        decision.reason = "probe-down";
      } else {
        // min == max: nothing to probe.
        decision.reason = "pinned";
      }
      break;
    }
    case ProbeState::kProbingUp:
    case ProbeState::kProbingDown: {
      if (throughput > ema_) {
        stable_ = concurrency_;
        ema_ = kEmaWeight * throughput + (1.0 - kEmaWeight) * ema_;
        decision.adopted = true;
        decision.reason = "adopted";
      } else {
        concurrency_ = stable_;
        decision.reason = "reverted";
      }
      state_ = ProbeState::kStable;
      break;
    }
  }

  ++epochs_;
  decision.state = state_;
  decision.concurrency = concurrency_;
  decision.stable_concurrency = stable_;
  decision.ema_throughput = ema_;
  return decision;
}

}  // namespace streambid::gate
