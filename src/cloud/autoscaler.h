// Copyright 2026 The streambid Authors
// Closed-loop capacity autoscaling — the §VII energy argument made
// operational. The paper observes that the center should not blindly
// provision its full capacity: "it might be more profitable not to
// fully utilize the available capacity". The CapacityAutoscaler closes
// that loop: it watches a rolling window of period outcomes (measured
// vs auction utilization, shedding), derives a
// utilization-tracking demand estimate, and at each period boundary
// runs OptimizeCapacity over a candidate grid centered on that
// estimate — under hysteresis (minimum dwell between changes, maximum
// per-step ratio) so capacity does not thrash. Decisions are a pure
// function of (options, observed history, upcoming instance, seed):
// replaying the same inputs yields byte-identical decisions, which is
// what keeps the cluster layer's determinism contract intact when every
// shard autoscales independently.

#ifndef STREAMBID_CLOUD_AUTOSCALER_H_
#define STREAMBID_CLOUD_AUTOSCALER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "auction/instance.h"
#include "cloud/energy.h"
#include "common/status.h"
#include "service/admission_service.h"

namespace streambid::cloud {

/// Autoscaler configuration. The baseline (installed) capacity is the
/// upper provisioning bound: the autoscaler decides how much of the
/// hardware to power, it cannot conjure servers beyond it.
struct AutoscalerOptions {
  /// Master switch; when false the owning center never re-provisions.
  bool enabled = false;
  /// Lower provisioning bound, as a fraction of the baseline capacity.
  /// Must stay strictly positive: a zero-capacity engine cannot run.
  double min_capacity_ratio = 0.25;
  /// Hysteresis: a new capacity must be held for at least this many
  /// periods before the next change (1 = may change every period).
  int min_dwell_periods = 2;
  /// Hysteresis: |next - current| <= current * max_step_ratio.
  double max_step_ratio = 0.5;
  /// Energy curve priced into every candidate (and into the owning
  /// center's PeriodReport::energy_cost, autoscaled or not).
  EnergyModel energy;
};

/// One period boundary's provisioning decision.
struct AutoscaleDecision {
  /// Decision index (== the period the capacity applies to).
  int period = 0;
  /// True when a candidate grid was actually evaluated (false under
  /// dwell, and for idle periods with no upcoming auction).
  bool evaluated = false;
  /// True when the capacity moved.
  bool changed = false;
  double previous_capacity = 0.0;
  /// The capacity provisioned for the upcoming period.
  double capacity = 0.0;
  /// The utilization-tracking demand estimate the grid was centered on.
  double demand_estimate = 0.0;
  /// Net profit of the chosen candidate (0 unless evaluated).
  double expected_net_profit = 0.0;
  /// Why: "dwell" (hysteresis hold), "idle" (no upcoming auction —
  /// shrink toward the minimum), "optimized" (grid evaluated).
  std::string reason;
};

/// What the autoscaler sees of one completed period. Kept separate from
/// cloud::PeriodReport so the header dependency points the right way
/// (dsms_center.h embeds AutoscaleDecision in its report).
struct PeriodObservation {
  double provisioned_capacity = 0.0;
  double measured_utilization = 0.0;
  double auction_utilization = 0.0;
  /// Fraction of arriving tuples shed by engine overload protection —
  /// a shed period's true demand exceeded what the engine admitted.
  double shed_fraction = 0.0;
};

/// The closed-loop capacity controller. Not thread-safe; one per
/// center (the cluster layer gives each shard its own).
class CapacityAutoscaler {
 public:
  /// Preconditions (checked): baseline_capacity > 0, 0 <
  /// min_capacity_ratio <= 1, min_dwell_periods >= 1, max_step_ratio > 0.
  CapacityAutoscaler(const AutoscalerOptions& options,
                     double baseline_capacity);

  /// Records a completed period into the rolling window of the newest
  /// four.
  void Observe(const PeriodObservation& observation);

  /// Proposes the capacity for the upcoming period. `instance` is the
  /// period's auction demand (null when no submissions are pending —
  /// an idle period shrinks toward the minimum bound). The decision is
  /// a pure function of (options, baseline, observation history,
  /// instance, seed); it commits internally, so call once per period.
  /// Errors from candidate evaluation (unknown mechanism, admission
  /// failures) propagate without mutating the controller.
  Result<AutoscaleDecision> Propose(service::AdmissionService& service,
                                    std::string_view mechanism,
                                    const auction::AuctionInstance* instance,
                                    uint64_t seed);

  /// The capacity the next period should run at (the baseline before
  /// the first Propose).
  double capacity() const { return capacity_; }
  double baseline_capacity() const { return baseline_; }
  double min_capacity() const {
    return baseline_ * options_.min_capacity_ratio;
  }
  double max_capacity() const { return baseline_; }
  const AutoscalerOptions& options() const { return options_; }
  const std::deque<PeriodObservation>& window() const { return window_; }

  /// The mean demand (capacity units) the rolling window tracks:
  /// per-period engine-or-auction load, corrected for shedding. Falls
  /// back to the current capacity while the window is empty.
  double DemandEstimate() const;

  /// The deterministic evaluation seed for decision `period` under
  /// `seed` — a salted stream distinct from the period auctions', so
  /// what-if candidate runs never collide with the real (seed, period)
  /// request streams.
  static uint64_t EvaluationSeed(uint64_t seed, int period);

 private:
  AutoscalerOptions options_;
  double baseline_ = 0.0;
  double capacity_ = 0.0;
  std::deque<PeriodObservation> window_;
  int decisions_ = 0;           ///< Propose calls so far.
  int periods_since_change_ = 0;
};

}  // namespace streambid::cloud

#endif  // STREAMBID_CLOUD_AUTOSCALER_H_
