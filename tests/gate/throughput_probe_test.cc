// Copyright 2026 The streambid Authors
// ThroughputProbe contract tests: probes launch from stable epochs and
// are judged against the moving average, adoption moves the stable
// concurrency and reversion restores it, bounds always hold, and the
// whole decision sequence is a pure function of (observations, seed).

#include "gate/throughput_probe.h"

#include <gtest/gtest.h>

#include <vector>

namespace streambid::gate {
namespace {

/// min == initial pins the down direction, so the first probe is
/// deterministically up without touching the seed coin.
ProbeOptions UpFirstOptions() {
  ProbeOptions options;
  options.initial_concurrency = 4;
  options.min_concurrency = 4;
  options.max_concurrency = 64;
  return options;
}

TEST(ThroughputProbeTest, InitialConcurrencyClampsIntoBounds) {
  ProbeOptions options;
  options.initial_concurrency = 1000;
  options.min_concurrency = 2;
  options.max_concurrency = 64;
  ThroughputProbe probe(options);
  EXPECT_EQ(probe.concurrency(), 64);

  options.initial_concurrency = 1;
  ThroughputProbe low(options);
  EXPECT_EQ(low.concurrency(), 2);
}

TEST(ThroughputProbeTest, PinnedWhenMinEqualsMax) {
  ProbeOptions options;
  options.initial_concurrency = 8;
  options.min_concurrency = 8;
  options.max_concurrency = 8;
  ThroughputProbe probe(options);
  const ProbeDecision decision = probe.Observe(100.0);
  EXPECT_EQ(decision.state, ProbeState::kStable);
  EXPECT_EQ(decision.concurrency, 8);
  EXPECT_EQ(decision.reason, "pinned");
  EXPECT_DOUBLE_EQ(decision.ema_throughput, 100.0);
}

TEST(ThroughputProbeTest, ProbeUpAdoptsOnImprovement) {
  ThroughputProbe probe(UpFirstOptions());
  const ProbeDecision launch = probe.Observe(100.0);
  EXPECT_EQ(launch.state, ProbeState::kProbingUp);
  EXPECT_EQ(launch.reason, "probe-up");
  EXPECT_EQ(launch.concurrency, 5);  // 4 * 1.25.
  EXPECT_EQ(launch.stable_concurrency, 4);

  const ProbeDecision verdict = probe.Observe(150.0);
  EXPECT_EQ(verdict.state, ProbeState::kStable);
  EXPECT_TRUE(verdict.adopted);
  EXPECT_EQ(verdict.reason, "adopted");
  EXPECT_EQ(verdict.stable_concurrency, 5);
  EXPECT_EQ(verdict.concurrency, 5);
}

TEST(ThroughputProbeTest, ProbeRevertsWithoutImprovement) {
  ThroughputProbe probe(UpFirstOptions());
  ASSERT_EQ(probe.Observe(100.0).state, ProbeState::kProbingUp);
  const ProbeDecision verdict = probe.Observe(80.0);
  EXPECT_EQ(verdict.state, ProbeState::kStable);
  EXPECT_FALSE(verdict.adopted);
  EXPECT_EQ(verdict.reason, "reverted");
  EXPECT_EQ(verdict.concurrency, 4);
  EXPECT_EQ(verdict.stable_concurrency, 4);
  // The failed probe's throughput never pollutes the moving average.
  EXPECT_DOUBLE_EQ(verdict.ema_throughput, 100.0);
}

TEST(ThroughputProbeTest, BoundsHoldAcrossManyEpochs) {
  ProbeOptions options;
  options.initial_concurrency = 8;
  options.min_concurrency = 2;
  options.max_concurrency = 32;
  options.seed = 7;
  ThroughputProbe probe(options);
  double throughput = 50.0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    // A noisy sawtooth keeps both adoption and reversion exercised.
    throughput = 50.0 + (epoch % 7) * 13.0 - (epoch % 3) * 9.0;
    const ProbeDecision decision = probe.Observe(throughput);
    EXPECT_GE(decision.concurrency, options.min_concurrency);
    EXPECT_LE(decision.concurrency, options.max_concurrency);
    EXPECT_GE(decision.stable_concurrency, options.min_concurrency);
    EXPECT_LE(decision.stable_concurrency, options.max_concurrency);
  }
}

TEST(ThroughputProbeTest, DecisionsReplayFromHistoryAndSeed) {
  ProbeOptions options;
  options.initial_concurrency = 16;
  options.min_concurrency = 2;
  options.max_concurrency = 64;
  options.seed = 21;
  ThroughputProbe a(options);
  ThroughputProbe b(options);
  for (int epoch = 0; epoch < 100; ++epoch) {
    const double throughput = 40.0 + (epoch * 17) % 31;
    const ProbeDecision da = a.Observe(throughput);
    const ProbeDecision db = b.Observe(throughput);
    ASSERT_EQ(da.state, db.state);
    ASSERT_EQ(da.concurrency, db.concurrency);
    ASSERT_EQ(da.stable_concurrency, db.stable_concurrency);
    ASSERT_EQ(da.reason, db.reason);
    ASSERT_EQ(da.adopted, db.adopted);
    ASSERT_EQ(da.ema_throughput, db.ema_throughput);
  }
}

TEST(ThroughputProbeTest, SeedChangesTheDirectionSequence) {
  ProbeOptions options;
  options.initial_concurrency = 16;
  options.min_concurrency = 2;
  options.max_concurrency = 64;
  options.seed = 1;
  ProbeOptions other = options;
  other.seed = 2;
  ThroughputProbe a(options);
  ThroughputProbe b(other);
  // Same observations; with both directions open the seeded coin must
  // eventually pick differently for different seeds.
  bool diverged = false;
  for (int epoch = 0; epoch < 50 && !diverged; ++epoch) {
    const ProbeDecision da = a.Observe(100.0);
    const ProbeDecision db = b.Observe(100.0);
    diverged = da.state != db.state || da.concurrency != db.concurrency;
  }
  EXPECT_TRUE(diverged);
}

TEST(ThroughputProbeTest, StateNamesAreStable) {
  EXPECT_STREQ(ProbeStateName(ProbeState::kStable), "stable");
  EXPECT_STREQ(ProbeStateName(ProbeState::kProbingUp), "probe-up");
  EXPECT_STREQ(ProbeStateName(ProbeState::kProbingDown), "probe-down");
}

}  // namespace
}  // namespace streambid::gate
