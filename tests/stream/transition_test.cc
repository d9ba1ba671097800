// Copyright 2026 The streambid Authors
// The §II transition phase — "this transition phase ensures the
// correctness of the results output by CQs that continue to execute" —
// as a property of the engine's period boundary: queries are installed
// and uninstalled between two Run calls, when no tuple is in flight, so
// a query that continues across the boundary loses no tuple and a query
// installed at the boundary sees only later arrivals.

#include <gtest/gtest.h>

#include "stream/engine.h"
#include "stream/query_builder.h"

namespace streambid::stream {
namespace {

/// Emits exactly one tuple per second with increasing sequence numbers.
class SequenceSource final : public StreamSource {
 public:
  explicit SequenceSource(std::string name)
      : StreamSource(std::move(name),
                     MakeSchema({{"seq", ValueType::kInt64}}), 1.0, 1) {}

 protected:
  void Generate(VirtualTime ts, Rng& rng,
                std::vector<Value>* values) override {
    (void)ts;
    (void)rng;
    values->emplace_back(next_++);
  }

 private:
  int64_t next_ = 0;
};

QueryPlan PassThrough() {
  QueryBuilder b;
  const int src = b.Source("seq");
  const int sel = b.Select(src, "seq", CompareOp::kGe, Value(int64_t{0}));
  return b.Build(sel);
}

QueryPlan EvenOnly() {
  QueryBuilder b;
  const int src = b.Source("seq");
  const int sel = b.Select(src, "seq", CompareOp::kGe, Value(int64_t{0}));
  const int proj = b.Project(sel, {"seq"});
  return b.Build(proj);
}

class TransitionTest : public ::testing::Test {
 protected:
  TransitionTest() : engine_(EngineOptions{100.0, 1.0, 1024}) {
    EXPECT_TRUE(
        engine_.RegisterSource(std::make_unique<SequenceSource>("seq"))
            .ok());
  }

  Engine engine_;
};

TEST_F(TransitionTest, NoTupleLossAcrossTransition) {
  ASSERT_TRUE(engine_.InstallQuery(1, PassThrough()).ok());
  engine_.Run(10.0);
  // Query 2 shares query 1's select; installing and later uninstalling
  // it modifies the network under the continuing query 1.
  ASSERT_TRUE(engine_.InstallQuery(2, EvenOnly()).ok());
  engine_.Run(7.0);
  ASSERT_TRUE(engine_.UninstallQuery(2).ok());
  engine_.Run(10.0);
  // Sequence source emits 1/s beginning at t=0: by t=27 it has emitted
  // 28 tuples (0..27). Every one must reach the sink exactly once.
  EXPECT_EQ(engine_.sink(1)->tuples, 28);
  const auto& recent = engine_.sink(1)->recent;
  ASSERT_EQ(recent.size(), 28u);
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].field("seq").AsInt64(), static_cast<int64_t>(i));
  }
}

TEST_F(TransitionTest, QuerySwapDuringTransition) {
  ASSERT_TRUE(engine_.InstallQuery(1, PassThrough()).ok());
  engine_.Run(5.0);  // Tuples 0..5.
  ASSERT_TRUE(engine_.UninstallQuery(1).ok());
  ASSERT_TRUE(engine_.InstallQuery(2, EvenOnly()).ok());
  engine_.Run(5.0);  // Tuples 6..10.
  EXPECT_EQ(engine_.sink(1), nullptr);
  // The new query sees exactly the arrivals after the swap.
  ASSERT_EQ(engine_.sink(2)->tuples, 5);
  EXPECT_EQ(engine_.sink(2)->recent.front().field("seq").AsInt64(), 6);
}

TEST_F(TransitionTest, NewQueryDoesNotSeePreTransitionTuples) {
  // A query installed at a period boundary must only process tuples
  // that arrive after it — not historical data.
  engine_.Run(10.0);  // Tuples 0..10 flow with no queries installed.
  ASSERT_TRUE(engine_.InstallQuery(3, PassThrough()).ok());
  engine_.Run(10.0);
  // Tuples 11..20 (emitted after t=10) reach the sink.
  ASSERT_EQ(engine_.sink(3)->tuples, 10);
  EXPECT_EQ(engine_.sink(3)->recent.front().field("seq").AsInt64(), 11);
}

}  // namespace
}  // namespace streambid::stream
