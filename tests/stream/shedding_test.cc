// Copyright 2026 The streambid Authors
// Tuple-level load shedding (the overload response the paper's
// conclusion contrasts with query-level admission control).

#include <gtest/gtest.h>

#include "stream/engine.h"
#include "stream/query_builder.h"

namespace streambid::stream {
namespace {

/// Fixed-rate source of unit tuples.
class FirehoseSource final : public StreamSource {
 public:
  FirehoseSource(std::string name, double rate)
      : StreamSource(std::move(name),
                     MakeSchema({{"x", ValueType::kDouble}}), rate, 3) {}

 protected:
  void Generate(VirtualTime ts, Rng& rng,
                std::vector<Value>* values) override {
    (void)ts;
    values->emplace_back(rng.NextDouble());
  }
};

QueryPlan PassAll() {
  QueryBuilder b;
  const int src = b.Source("firehose");
  const int sel = b.Select(src, "x", CompareOp::kGe, Value(0.0));
  return b.Build(sel);
}

TEST(SheddingTest, NoSheddingWhenUnderProvisioned) {
  // Capacity 10 units; one select at 100 tuples/s costs 1 unit.
  Engine engine(EngineOptions{10.0, 1.0, 8, /*shed_on_overload=*/true});
  ASSERT_TRUE(engine
                  .RegisterSource(
                      std::make_unique<FirehoseSource>("firehose", 100.0))
                  .ok());
  ASSERT_TRUE(engine.InstallQuery(1, PassAll()).ok());
  engine.Run(20.0);
  EXPECT_EQ(engine.LastRunShedTuples(), 0);
  EXPECT_DOUBLE_EQ(engine.LastRunShedFraction(), 0.0);
}

TEST(SheddingTest, OverloadTriggersProportionalDrops) {
  // Capacity 0.5 units but the query needs ~1 unit: the controller
  // should shed roughly half the arriving tuples.
  Engine engine(EngineOptions{0.5, 1.0, 8, /*shed_on_overload=*/true});
  ASSERT_TRUE(engine
                  .RegisterSource(
                      std::make_unique<FirehoseSource>("firehose", 100.0))
                  .ok());
  ASSERT_TRUE(engine.InstallQuery(1, PassAll()).ok());
  engine.Run(100.0);
  EXPECT_GT(engine.LastRunShedTuples(), 0);
  EXPECT_NEAR(engine.LastRunShedFraction(), 0.5, 0.1);
  // Post-shedding load respects the capacity (within controller lag).
  EXPECT_LE(engine.LastRunUtilization(), 1.2);
}

TEST(SheddingTest, DisabledByDefault) {
  Engine engine(EngineOptions{0.5, 1.0, 8});  // shed_on_overload=false.
  ASSERT_TRUE(engine
                  .RegisterSource(
                      std::make_unique<FirehoseSource>("firehose", 100.0))
                  .ok());
  ASSERT_TRUE(engine.InstallQuery(1, PassAll()).ok());
  engine.Run(20.0);
  EXPECT_EQ(engine.LastRunShedTuples(), 0);
  // Without shedding the engine simply runs over capacity.
  EXPECT_GT(engine.LastRunUtilization(), 1.5);
}

TEST(SheddingTest, AdmissionControlAvoidsSheddingEntirely) {
  // The paper's thesis in one test: with a feasible admitted set
  // (auction's promise: union load <= capacity), the shedder never
  // fires even when enabled.
  Engine engine(EngineOptions{1.2, 1.0, 8, /*shed_on_overload=*/true});
  ASSERT_TRUE(engine
                  .RegisterSource(
                      std::make_unique<FirehoseSource>("firehose", 100.0))
                  .ok());
  ASSERT_TRUE(engine.InstallQuery(1, PassAll()).ok());  // ~1.0 unit.
  engine.Run(50.0);
  EXPECT_EQ(engine.LastRunShedTuples(), 0);
  EXPECT_LE(engine.LastRunUtilization(), 1.0);
}

TEST(SheddingTest, ShedCountersResetPerRun) {
  Engine engine(EngineOptions{0.5, 1.0, 8, /*shed_on_overload=*/true});
  ASSERT_TRUE(engine
                  .RegisterSource(
                      std::make_unique<FirehoseSource>("firehose", 100.0))
                  .ok());
  ASSERT_TRUE(engine.InstallQuery(1, PassAll()).ok());
  engine.Run(50.0);
  ASSERT_GT(engine.LastRunShedTuples(), 0);
  ASSERT_TRUE(engine.UninstallQuery(1).ok());
  engine.Run(10.0);  // Nothing installed: nothing shed.
  EXPECT_EQ(engine.LastRunShedTuples(), 0);
}

}  // namespace
}  // namespace streambid::stream
