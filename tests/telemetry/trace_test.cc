// Copyright 2026 The streambid Authors
// The period tracer: logical identity vs wall-clock annotation. Sorted
// export must be independent of recording interleavings, the identity
// sequence must exclude every nondeterministic field, and disabled
// tracing must be free.

#include "telemetry/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace streambid::telemetry {
namespace {

TEST(PhaseNameTest, AllPhases) {
  EXPECT_STREQ(PhaseName(Phase::kGateDrain), "gate_drain");
  EXPECT_STREQ(PhaseName(Phase::kPrepare), "prepare");
  EXPECT_STREQ(PhaseName(Phase::kAutoscale), "autoscale");
  EXPECT_STREQ(PhaseName(Phase::kAdmit), "admit");
  EXPECT_STREQ(PhaseName(Phase::kComplete), "complete");
  EXPECT_STREQ(PhaseName(Phase::kRebalance), "rebalance");
}

TEST(PeriodTracerTest, NullTracerScopedSpanIsSafe) {
  ScopedSpan span(nullptr, Phase::kAdmit, 3, 1, 7);
  // Destruction must be a no-op; nothing to assert beyond not crashing.
}

TEST(PeriodTracerTest, ScopedSpanRecordsOnDestruction) {
  PeriodTracer tracer;
  {
    ScopedSpan span(&tracer, Phase::kComplete, 2, 3, 9);
    EXPECT_EQ(tracer.span_count(), 0);  // Not yet.
  }
  EXPECT_EQ(tracer.span_count(), 1);
  const std::vector<TraceSpan> spans = tracer.SortedSpans();
  EXPECT_EQ(spans[0].phase, Phase::kComplete);
  EXPECT_EQ(spans[0].period, 2);
  EXPECT_EQ(spans[0].shard, 3);
  EXPECT_EQ(spans[0].epoch, 9u);
  EXPECT_GE(spans[0].duration_ms, 0.0);
}

TEST(PeriodTracerTest, SortedSpansUseLogicalOrder) {
  // Record out of logical order (as racing pool workers would); the
  // export must come back in (period, shard, phase) order.
  PeriodTracer tracer;
  tracer.Record(Phase::kComplete, 1, 0, 2, 50.0, 1.0);
  tracer.Record(Phase::kPrepare, 0, 1, 1, 5.0, 1.0);
  tracer.Record(Phase::kGateDrain, 0, -1, 1, 0.0, 1.0);
  tracer.Record(Phase::kAdmit, 0, 1, 1, 6.0, 1.0);
  tracer.Record(Phase::kPrepare, 1, 0, 2, 40.0, 1.0);
  const std::vector<TraceSpan> spans = tracer.SortedSpans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].phase, Phase::kGateDrain);  // period 0, shard -1.
  EXPECT_EQ(spans[1].phase, Phase::kPrepare);    // period 0, shard 1.
  EXPECT_EQ(spans[2].phase, Phase::kAdmit);      // period 0, shard 1.
  EXPECT_EQ(spans[3].phase, Phase::kPrepare);    // period 1, shard 0.
  EXPECT_EQ(spans[4].phase, Phase::kComplete);   // period 1, shard 0.
}

TEST(PeriodTracerTest, IdentityIndependentOfInterleaving) {
  // Two tracers record the same logical spans in different orders with
  // different wall clocks: identical identity sequences.
  PeriodTracer a;
  a.Record(Phase::kPrepare, 0, 0, 1, 1.0, 2.0);
  a.Record(Phase::kComplete, 0, 0, 1, 3.0, 4.0);
  PeriodTracer b;
  b.Record(Phase::kComplete, 0, 0, 1, 99.0, 0.5);
  b.Record(Phase::kPrepare, 0, 0, 1, 98.0, 0.25);
  EXPECT_EQ(a.IdentitySequence(), b.IdentitySequence());
  EXPECT_NE(a.IdentitySequence().find(
                "period=0 shard=0 epoch=1 phase=prepare"),
            std::string::npos);
}

TEST(PeriodTracerTest, ConcurrentRecorders) {
  PeriodTracer tracer;
  constexpr int kThreads = 8;
  constexpr int kSpans = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpans; ++i) {
        tracer.Record(Phase::kAdmit, i, t, 1, 0.0, 0.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tracer.span_count(),
            static_cast<int64_t>(kThreads) * kSpans);
  // Sorted export is a total order here: every (period, shard) pair is
  // unique, so the sequence is deterministic despite the racing.
  const std::vector<TraceSpan> spans = tracer.SortedSpans();
  for (size_t i = 1; i < spans.size(); ++i) {
    const bool ordered =
        spans[i - 1].period < spans[i].period ||
        (spans[i - 1].period == spans[i].period &&
         spans[i - 1].shard < spans[i].shard);
    EXPECT_TRUE(ordered);
  }
}

TEST(PeriodTracerTest, ClearResets) {
  PeriodTracer tracer;
  tracer.Record(Phase::kPrepare, 0, 0, 1, 0.0, 1.0);
  EXPECT_EQ(tracer.span_count(), 1);
  tracer.Clear();
  EXPECT_EQ(tracer.span_count(), 0);
  EXPECT_TRUE(tracer.IdentitySequence().empty());
}

TEST(ChromeTraceTest, JsonShape) {
  PeriodTracer tracer;
  tracer.Record(Phase::kGateDrain, 0, -1, 1, 1.5, 2.5);
  tracer.Record(Phase::kAdmit, 0, 2, 1, 4.0, 1.0);
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gate_drain\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"admit\""), std::string::npos);
  // tid = shard + 1: gate-level spans (shard -1) land on track 0.
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  // ts/dur are microseconds: 1.5 ms -> 1500.
  EXPECT_NE(json.find("\"ts\":1500"), std::string::npos);
}

TEST(ChromeTraceTest, WriteToFile) {
  PeriodTracer tracer;
  tracer.Record(Phase::kPrepare, 0, 0, 1, 0.0, 1.0);
  const std::string path =
      testing::TempDir() + "/streambid_trace_test.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  // An unwritable path must surface kInternal, not crash.
  EXPECT_FALSE(
      tracer.WriteChromeTrace("/nonexistent-dir/trace.json").ok());
}

}  // namespace
}  // namespace streambid::telemetry
