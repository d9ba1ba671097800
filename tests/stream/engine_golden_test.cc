// Copyright 2026 The streambid Authors
// Golden replay of the engine's observable output. A fixed plan set over
// the synthetic quote, sensor and news feeds runs through eight
// subscription-period transitions; every sink tuple, sink count,
// per-operator load row and the utilization fold into one FNV-1a digest.
// The digest is pinned: a data-plane change that keeps behaviour must
// reproduce it exactly, and any change to what the engine emits, in what
// order, or what it measures shows up here. Re-pin only for an intended
// behaviour change. The quote feed's random walk calls std::exp, so a
// libm that rounds differently could move the digest with no engine
// change; check against a build of the previous commit on the same
// machine before re-pinning.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stream/engine.h"
#include "stream/query_builder.h"

namespace streambid::stream {
namespace {

class Fnv1a {
 public:
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ull;
    }
    // Field separator, so "ab"+"c" and "a"+"bc" differ.
    hash_ ^= 0xffu;
    hash_ *= 0x100000001b3ull;
  }
  void Add(int64_t v) { Add(std::to_string(v)); }
  void AddExact(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Add(std::string(buf));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The plan set: every operator kind, sharing a select subtree between
/// two plans, aggregates grouped by a string and by an int64 field.
std::vector<QueryPlan> GoldenPlans() {
  std::vector<QueryPlan> plans;
  QueryBuilder b;
  {  // 0: select.
    const int q = b.Source("quotes");
    plans.push_back(b.Build(b.Select(q, "price", CompareOp::kGt,
                                     Value(100.0))));
  }
  {  // 1: sliding avg grouped by a string key, over plan 0's select.
    const int q = b.Source("quotes");
    const int sel = b.Select(q, "price", CompareOp::kGt, Value(100.0));
    plans.push_back(b.Build(b.Aggregate(sel, AggFn::kAvg, "price", "symbol",
                                        WindowSpec{10.0, 5.0})));
  }
  {  // 2: sliding max grouped by an int64 key.
    const int s = b.Source("sensors");
    plans.push_back(b.Build(b.Aggregate(s, AggFn::kMax, "reading", "sensor",
                                        WindowSpec{6.0, 3.0})));
  }
  {  // 3: ungrouped count.
    const int s = b.Source("sensors");
    plans.push_back(
        b.Build(b.Aggregate(s, AggFn::kCount, "", "", WindowSpec{5.0, 5.0})));
  }
  {  // 4: topk.
    const int q = b.Source("quotes");
    plans.push_back(b.Build(b.TopK(q, 3, "price", 10.0)));
  }
  {  // 5: map + project.
    const int q = b.Source("quotes");
    const int m = b.Map(q, "price", MapFn::kMul, 2.0, "double_price");
    plans.push_back(b.Build(b.Project(m, {"symbol", "double_price"})));
  }
  {  // 6: join quotes with news on the company symbol.
    const int q = b.Source("quotes");
    const int n = b.Source("news");
    plans.push_back(b.Build(b.Join(q, n, "symbol", "company", 5.0)));
  }
  {  // 7: union of two selects.
    const int q = b.Source("quotes");
    const int hi = b.Select(q, "price", CompareOp::kGt, Value(101.0));
    const int q2 = b.Source("quotes");
    const int lo = b.Select(q2, "price", CompareOp::kLt, Value(99.0));
    plans.push_back(b.Build(b.Union(hi, lo)));
  }
  {  // 8: distinct.
    const int n = b.Source("news");
    plans.push_back(b.Build(b.Distinct(n, "company", 4.0)));
  }
  {  // 9: sliding min behind the same shared select.
    const int q = b.Source("quotes");
    const int sel = b.Select(q, "price", CompareOp::kGt, Value(100.0));
    plans.push_back(b.Build(b.Aggregate(sel, AggFn::kMin, "volume",
                                        "symbol", WindowSpec{8.0, 4.0})));
  }
  return plans;
}

uint64_t RunGolden() {
  EngineOptions options;
  options.capacity = 50.0;
  options.tick = 1.0;
  options.sink_history = 1 << 20;  // Keeps every output.
  Engine engine(options);
  EXPECT_TRUE(engine
                  .RegisterSource(MakeStockQuoteSource(
                      "quotes", {"IBM", "AAPL", "MSFT", "ACME"}, 20.0, 11))
                  .ok());
  EXPECT_TRUE(
      engine.RegisterSource(MakeSensorSource("sensors", 5, 15.0, 12)).ok());
  EXPECT_TRUE(engine
                  .RegisterSource(MakeNewsSource(
                      "news", {"IBM", "AAPL", "ACME", "INIT"}, 0.5, 6.0, 13))
                  .ok());

  const std::vector<QueryPlan> plans = GoldenPlans();
  const int num_plans = static_cast<int>(plans.size());
  Fnv1a digest;
  std::map<int, size_t> hashed;  // Query id -> sink tuples folded so far.
  std::vector<int64_t> outputs_per_plan(plans.size(), 0);
  for (int period = 0; period < 8; ++period) {
    // Uninstall a rotating half of the installed queries.
    const std::vector<int> installed = engine.InstalledQueries();
    for (size_t i = 0; i < installed.size(); ++i) {
      if ((static_cast<int>(i) + period) % 2 == 0) {
        EXPECT_TRUE(engine.UninstallQuery(installed[i]).ok());
        hashed.erase(installed[i]);
      }
    }
    // Install a rotating subset under fresh ids.
    for (int p = 0; p < num_plans; ++p) {
      if ((p + period) % 3 == 0) continue;
      EXPECT_TRUE(engine
                      .InstallQuery(period * 100 + p,
                                    plans[static_cast<size_t>(p)])
                      .ok());
    }
    engine.Run(30.0);

    for (int qid : engine.InstalledQueries()) {
      const SinkStats* sink = engine.sink(qid);
      EXPECT_NE(sink, nullptr);
      if (sink == nullptr) continue;
      EXPECT_EQ(static_cast<int64_t>(sink->recent.size()), sink->tuples);
      digest.Add(qid);
      digest.Add(sink->tuples);
      size_t& from = hashed[qid];
      for (size_t i = from; i < sink->recent.size(); ++i) {
        digest.Add(sink->recent[i].ToString());
      }
      outputs_per_plan[static_cast<size_t>(qid % 100)] +=
          static_cast<int64_t>(sink->recent.size() - from);
      from = sink->recent.size();
    }
    for (const OperatorLoadInfo& row : engine.OperatorLoads()) {
      digest.Add(row.signature);
      digest.Add(row.tuples_processed);
      digest.AddExact(row.measured_load);
      digest.Add(static_cast<int64_t>(row.sharing_degree));
    }
    digest.AddExact(engine.LastRunUtilization());
  }
  // A plan that never emits would leave the digest blind to it.
  for (size_t p = 0; p < plans.size(); ++p) {
    EXPECT_GT(outputs_per_plan[p], 0) << "plan " << p;
  }
  return digest.value();
}

TEST(EngineGoldenTest, SinkOutputAndLoadsMatchPinnedDigest) {
  const uint64_t digest = RunGolden();
  EXPECT_EQ(digest, 0x9b79bba9104bbcb1ull)
      << "digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace streambid::stream
