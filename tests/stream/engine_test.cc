// Copyright 2026 The streambid Authors
// End-to-end engine behaviour: execution, operator sharing, sinks, and
// measured loads.

#include "stream/engine.h"

#include <gtest/gtest.h>

#include "stream/query_builder.h"

namespace streambid::stream {
namespace {

/// Deterministic counter source: price cycles 1..10, symbol alternates.
class CounterSource final : public StreamSource {
 public:
  CounterSource(std::string name, double rate)
      : StreamSource(std::move(name),
                     MakeSchema({{"symbol", ValueType::kString},
                                 {"price", ValueType::kDouble}}),
                     rate, /*seed=*/1) {}

 protected:
  std::vector<Value> Generate(VirtualTime ts, Rng& rng) override {
    (void)ts;
    (void)rng;
    ++n_;
    return {Value(n_ % 2 == 0 ? "A" : "B"),
            Value(static_cast<double>(n_ % 10 + 1))};
  }

 private:
  int64_t n_ = 0;
};

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(EngineOptions{100.0, 1.0, 16}) {
    EXPECT_TRUE(engine_
                    .RegisterSource(std::make_unique<CounterSource>(
                        "quotes", /*rate=*/10.0))
                    .ok());
  }

  QueryPlan SelectPlan(double threshold) {
    QueryBuilder b;
    const int src = b.Source("quotes");
    const int sel =
        b.Select(src, "price", CompareOp::kGt, Value(threshold));
    return b.Build(sel);
  }

  Engine engine_;
};

TEST_F(EngineTest, RegisterSourceRejectsDuplicates) {
  EXPECT_FALSE(engine_
                   .RegisterSource(std::make_unique<CounterSource>(
                       "quotes", 1.0))
                   .ok());
  EXPECT_NE(engine_.source("quotes"), nullptr);
  EXPECT_EQ(engine_.source("nope"), nullptr);
}

TEST_F(EngineTest, InstallAndRunDeliversToSink) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  engine_.Run(10.0);
  const SinkStats* sink = engine_.sink(1);
  ASSERT_NE(sink, nullptr);
  // Prices cycle 1..10; > 5 passes half: ~100 tuples emitted, ~50 pass.
  EXPECT_GT(sink->tuples, 30);
  EXPECT_LT(sink->tuples, 70);
  EXPECT_FALSE(sink->recent.empty());
}

TEST_F(EngineTest, SinkHistoryKeepsNewestOldestFirst) {
  // Three engines over the same source and plan differ only in how much
  // sink history they keep; the full history is the reference.
  auto run = [this](int history) {
    auto engine = std::make_unique<Engine>(EngineOptions{100.0, 1.0, history});
    EXPECT_TRUE(engine
                    ->RegisterSource(std::make_unique<CounterSource>(
                        "quotes", /*rate=*/10.0))
                    .ok());
    EXPECT_TRUE(engine->InstallQuery(1, SelectPlan(5.0)).ok());
    engine->Run(5.0);
    return engine;
  };
  const auto full = run(1000);
  const auto three = run(3);
  const auto none = run(0);
  const SinkStats& all = *full->sink(1);
  ASSERT_GT(all.tuples, 3);
  ASSERT_EQ(static_cast<int64_t>(all.recent.size()), all.tuples);

  const SinkStats& last3 = *three->sink(1);
  EXPECT_EQ(last3.tuples, all.tuples);
  ASSERT_EQ(last3.recent.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(last3.recent[i].ToString(),
              all.recent[all.recent.size() - 3 + i].ToString());
  }
  EXPECT_LT(last3.recent[0].timestamp(), last3.recent[1].timestamp());
  EXPECT_LT(last3.recent[1].timestamp(), last3.recent[2].timestamp());

  EXPECT_EQ(none->sink(1)->tuples, all.tuples);
  EXPECT_TRUE(none->sink(1)->recent.empty());
}

TEST_F(EngineTest, InstallValidatesPlan) {
  QueryBuilder b;
  const int src = b.Source("unknown_stream");
  const QueryPlan bad_source = b.Build(src);
  EXPECT_EQ(engine_.InstallQuery(1, bad_source).code(),
            StatusCode::kNotFound);

  const int src2 = b.Source("quotes");
  const int sel = b.Select(src2, "no_such_field", CompareOp::kGt,
                           Value(1.0));
  const QueryPlan bad_field = b.Build(sel);
  EXPECT_EQ(engine_.InstallQuery(1, bad_field).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine_.IsInstalled(1));
}

TEST_F(EngineTest, DuplicateIdRejected) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  EXPECT_EQ(engine_.InstallQuery(1, SelectPlan(6.0)).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, IdenticalPlansShareOperators) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  const int nodes_after_first = engine_.num_runtime_nodes();
  ASSERT_TRUE(engine_.InstallQuery(2, SelectPlan(5.0)).ok());
  // Same subtree: no new nodes.
  EXPECT_EQ(engine_.num_runtime_nodes(), nodes_after_first);
  EXPECT_EQ(engine_.num_shared_nodes(), nodes_after_first);

  ASSERT_TRUE(engine_.InstallQuery(3, SelectPlan(7.0)).ok());
  // Different predicate: one new select node, shared source.
  EXPECT_EQ(engine_.num_runtime_nodes(), nodes_after_first + 1);

  engine_.Run(5.0);
  // Both sharers see identical outputs.
  EXPECT_EQ(engine_.sink(1)->tuples, engine_.sink(2)->tuples);
  EXPECT_GT(engine_.sink(1)->tuples, 0);
}

TEST_F(EngineTest, UninstallKeepsSharedNodesAlive) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  ASSERT_TRUE(engine_.InstallQuery(2, SelectPlan(5.0)).ok());
  const int shared_nodes = engine_.num_runtime_nodes();
  ASSERT_TRUE(engine_.UninstallQuery(1).ok());
  EXPECT_EQ(engine_.num_runtime_nodes(), shared_nodes);
  ASSERT_TRUE(engine_.UninstallQuery(2).ok());
  EXPECT_EQ(engine_.num_runtime_nodes(), 0);
  EXPECT_EQ(engine_.UninstallQuery(2).code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, RunWithoutQueriesIsHarmless) {
  engine_.Run(5.0);
  EXPECT_DOUBLE_EQ(engine_.now(), 5.0);
  EXPECT_DOUBLE_EQ(engine_.LastRunCost(), 0.0);
}

TEST_F(EngineTest, MeasuredLoadsReflectRates) {
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(5.0)).ok());
  engine_.Run(10.0);
  bool found_select = false;
  for (const OperatorLoadInfo& info : engine_.OperatorLoads()) {
    if (info.is_source) continue;
    found_select = true;
    // 10 tuples/sec * kSelect cost (0.01) = 0.1 capacity units.
    EXPECT_NEAR(info.measured_load, 10.0 * 0.01, 0.02);
    EXPECT_EQ(info.sharing_degree, 1);
    EXPECT_GT(info.tuples_processed, 0);
  }
  EXPECT_TRUE(found_select);
  EXPECT_GT(engine_.LastRunUtilization(), 0.0);
  EXPECT_LT(engine_.LastRunUtilization(), 1.0);
}

TEST_F(EngineTest, MeasuredLoadLookupBySignature) {
  const QueryPlan plan = SelectPlan(5.0);
  ASSERT_TRUE(engine_.InstallQuery(1, plan).ok());
  EXPECT_EQ(engine_.MeasuredLoad("nope").status().code(),
            StatusCode::kNotFound);
  engine_.Run(10.0);
  auto load = engine_.MeasuredLoad(plan.NodeSignature(plan.output_node));
  ASSERT_TRUE(load.ok());
  EXPECT_GT(*load, 0.0);
}

TEST_F(EngineTest, AggregateQueryEmitsWindows) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int agg = b.Aggregate(src, AggFn::kAvg, "price", "symbol",
                              {10.0, 10.0});
  ASSERT_TRUE(engine_.InstallQuery(9, b.Build(agg)).ok());
  engine_.Run(25.0);
  // Two full windows closed ([0,10), [10,20)), two symbols each.
  const SinkStats* sink = engine_.sink(9);
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->tuples, 4);
}

TEST_F(EngineTest, DeriveOutputSchemaMatchesInstalled) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int agg = b.Aggregate(src, AggFn::kAvg, "price", "symbol",
                              {10.0, 10.0});
  const QueryPlan plan = b.Build(agg);
  auto schema = engine_.DeriveOutputSchema(plan);
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE((*schema)->HasField("symbol"));
  EXPECT_TRUE((*schema)->HasField("window_end"));
  EXPECT_TRUE((*schema)->HasField("value"));
}

}  // namespace
}  // namespace streambid::stream
