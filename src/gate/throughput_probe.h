// Copyright 2026 The streambid Authors
// The throughput-probing concurrency controller of the streaming
// admission gate, after MongoDB's execution-control algorithm
// (SNIPPETS.md): instead of a static concurrency limit, the controller
// epochs over observed admit throughput and probes the limit up and
// down, keeping whatever setting measured throughput rewards.
//
// Three-state machine, one transition per epoch:
//
//               ┌────────── improved ──────────┐
//               ▼                              │
//   ┌────────┐ pick ┌────────────┐   not   ┌───┴────────┐
//   │ stable ├─────▶│ probe-up   ├─ imp. ─▶│ revert to  │
//   │ (ema)  │  or  │ (+step)    │         │ stable     │
//   │        ├─────▶│ probe-down ├─ imp. ─▶│ adopt probe│
//   └────────┘      │ (-step)    │         └────────────┘
//                   └────────────┘
//
// From kStable the controller blends the epoch's throughput into an
// exponential moving average and picks a probe direction (up unless
// pinned at the max, down unless pinned at the min; when both are
// possible the direction is a seeded — and therefore replayable — coin
// per epoch). The probe epoch then runs at stable*(1±0.25), at least
// one away; if its throughput beats the moving average (newest stable
// observation weighted 0.5), the probed concurrency becomes the new
// stable value, otherwise the controller reverts. Decisions are
// pure functions of (options, observation history, seed) — the same
// contract the autoscaler and rebalancer honor — so a gated run
// replays byte-identically.

#ifndef STREAMBID_GATE_THROUGHPUT_PROBE_H_
#define STREAMBID_GATE_THROUGHPUT_PROBE_H_

#include <cstdint>
#include <string>

namespace streambid::gate {

/// Probe configuration (names mirror the MongoDB server parameters in
/// SNIPPETS.md).
struct ProbeOptions {
  /// Master switch for owners that wire the probe optionally (the
  /// probe object itself always runs; StreamIngress checks this).
  bool enabled = false;
  /// Concurrency the first epoch runs at (clamped into the bounds).
  int initial_concurrency = 64;
  int min_concurrency = 4;
  int max_concurrency = 4096;
  /// Seeds the up-vs-down coin when both directions are possible.
  uint64_t seed = 1;
};

enum class ProbeState { kStable, kProbingUp, kProbingDown };

/// Stable lowercase name ("stable", "probe-up", "probe-down").
const char* ProbeStateName(ProbeState state);

/// One epoch's outcome: what was observed, what was decided, and the
/// concurrency the next epoch runs at.
struct ProbeDecision {
  int epoch = 0;
  /// State entering the NEXT epoch (kProbingUp means the next epoch
  /// runs at the probed concurrency).
  ProbeState state = ProbeState::kStable;
  /// Concurrency for the next epoch.
  int concurrency = 0;
  /// The current stable (accepted) concurrency.
  int stable_concurrency = 0;
  double throughput = 0.0;      ///< This epoch's observation.
  double ema_throughput = 0.0;  ///< Moving average after the update.
  bool adopted = false;         ///< A probe became the new stable value.
  /// "probe-up" / "probe-down" (probe launched), "adopted" / "reverted"
  /// (probe judged), "pinned" (min == max).
  std::string reason;
};

/// The concurrency controller. Not thread-safe: the gate drives one
/// Observe per period epoch from its single closing thread.
class ThroughputProbe {
 public:
  /// Precondition (checked): 1 <= min <= max.
  explicit ThroughputProbe(const ProbeOptions& options);

  /// Closes one epoch with its measured throughput (any monotone unit —
  /// the gate feeds admitted submissions per period) and returns the
  /// decision for the next epoch. Pure function of the observation
  /// history and the seed.
  ProbeDecision Observe(double throughput);

  /// Concurrency the next epoch should run at.
  int concurrency() const { return concurrency_; }
  int stable_concurrency() const { return stable_; }
  ProbeState state() const { return state_; }
  double ema_throughput() const { return ema_; }
  int epochs() const { return epochs_; }
  const ProbeOptions& options() const { return options_; }

 private:
  int ClampStep(double target) const;
  int StepUp() const;
  int StepDown() const;

  ProbeOptions options_;
  ProbeState state_ = ProbeState::kStable;
  int stable_ = 0;       ///< Last accepted concurrency.
  int concurrency_ = 0;  ///< What the next epoch runs at.
  double ema_ = 0.0;
  bool has_ema_ = false;
  int epochs_ = 0;
};

}  // namespace streambid::gate

#endif  // STREAMBID_GATE_THROUGHPUT_PROBE_H_
