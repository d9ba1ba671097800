// Copyright 2026 The streambid Authors
// End-to-end engine behaviour: execution, operator sharing, sinks, and
// measured loads.

#include "stream/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "stream/load_estimator.h"
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
  void Generate(VirtualTime ts, Rng& rng,
                std::vector<Value>* values) override {
    (void)ts;
    (void)rng;
    ++n_;
    values->emplace_back(n_ % 2 == 0 ? "A" : "B");
    values->emplace_back(static_cast<double>(n_ % 10 + 1));
  }

 private:
  int64_t n_ = 0;
};

/// Numbers its tuples 0, 1, 2, ... and tags each with its parity, so
/// a sink's order shows which input each tuple came through.
class ParitySource final : public StreamSource {
 public:
  ParitySource(std::string name, double rate)
      : StreamSource(std::move(name),
                     MakeSchema({{"seq", ValueType::kInt64},
                                 {"odd", ValueType::kInt64}}),
                     rate, /*seed=*/1) {}

 protected:
  void Generate(VirtualTime ts, Rng& rng,
                std::vector<Value>* values) override {
    (void)ts;
    (void)rng;
    const int64_t seq = next_++;
    values->emplace_back(seq);
    values->emplace_back(seq % 2);
  }

 private:
  int64_t next_ = 0;
};

/// Numbers its tuples and cycles an int64 field `i` and a double field
/// `d` through the values a numeric compare treats specially: a signed
/// zero, the int64 and double spellings of one threshold, the infinities
/// and NaN.
class SpecialValuesSource final : public StreamSource {
 public:
  explicit SpecialValuesSource(std::string name)
      : StreamSource(std::move(name),
                     MakeSchema({{"seq", ValueType::kInt64},
                                 {"i", ValueType::kInt64},
                                 {"d", ValueType::kDouble}}),
                     /*rate=*/4.0, /*seed=*/1) {}

 protected:
  void Generate(VirtualTime ts, Rng& rng,
                std::vector<Value>* values) override {
    (void)ts;
    (void)rng;
    const double inf = std::numeric_limits<double>::infinity();
    const int64_t ints[] = {-3, 0, 2};
    const double doubles[] = {-3.0, 0.0, -0.0, 2.0, 2.5, inf, -inf,
                              std::numeric_limits<double>::quiet_NaN()};
    const int64_t seq = next_++;
    values->emplace_back(seq);
    values->emplace_back(ints[seq % 3]);
    values->emplace_back(doubles[seq % 8]);
  }

 private:
  int64_t next_ = 0;
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

  QueryPlan MapPlan(double factor) {
    QueryBuilder b;
    const int src = b.Source("quotes");
    return b.Build(b.Map(src, "price", MapFn::kMul, factor, "scaled"));
  }

  Engine engine_;
};

/// Every observable per-node row: what OperatorLoads() reports.
std::vector<std::string> Rows(const Engine& engine) {
  std::vector<std::string> rows;
  for (const OperatorLoadInfo& info : engine.OperatorLoads()) {
    rows.push_back(info.signature + " | " +
                   std::to_string(info.sharing_degree) + " | " +
                   std::to_string(info.tuples_processed) + " | " +
                   std::to_string(info.measured_load));
  }
  return rows;
}

/// `plan`'s output schema as OpSpec::OutputSchema derives it, node by
/// node, over `engine`'s source schemas.
Result<SchemaPtr> DeriveSchema(const Engine& engine, const QueryPlan& plan) {
  std::vector<SchemaPtr> schemas;
  for (const QueryPlan::Node& node : plan.nodes) {
    if (node.spec.kind == OpKind::kSource) {
      schemas.push_back(engine.source(node.spec.source_name)->schema());
      continue;
    }
    std::vector<SchemaPtr> inputs;
    for (int in : node.inputs) {
      inputs.push_back(schemas[static_cast<size_t>(in)]);
    }
    STREAMBID_ASSIGN_OR_RETURN(SchemaPtr schema,
                               node.spec.OutputSchema(inputs));
    schemas.push_back(std::move(schema));
  }
  return schemas[static_cast<size_t>(plan.output_node)];
}

/// (signature, sharing degree) rows, sorted.
std::vector<std::pair<std::string, int>> SharingRows(const Engine& engine) {
  std::vector<std::pair<std::string, int>> rows;
  for (const OperatorLoadInfo& info : engine.OperatorLoads()) {
    rows.emplace_back(info.signature, info.sharing_degree);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

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

TEST_F(EngineTest, SignaturesKeepDistinctDoublesApart) {
  // Six significant digits spell both thresholds "100"; they must still
  // be two select nodes.
  ASSERT_TRUE(engine_.InstallQuery(1, SelectPlan(100.0001)).ok());
  ASSERT_TRUE(engine_.InstallQuery(2, SelectPlan(100.0004)).ok());
  ASSERT_TRUE(engine_.InstallQuery(3, SelectPlan(100.0004)).ok());
  EXPECT_EQ(engine_.num_runtime_nodes(), 3);  // One source, two selects.
  EXPECT_NE(SelectPlan(100.0001).NodeSignatures().back(),
            SelectPlan(100.0004).NodeSignatures().back());
  // Exact spellings are kept as they were.
  EXPECT_EQ(SelectPlan(100.0).NodeSignatures().back(),
            "select(price>d:100)<source(quotes)>");

  // Six decimals spell both factors "0.000000"; each sink must see its
  // own factor applied.
  ASSERT_TRUE(engine_.InstallQuery(4, MapPlan(1e-7)).ok());
  ASSERT_TRUE(engine_.InstallQuery(5, MapPlan(2e-7)).ok());
  engine_.Run(3.0);
  for (const auto& [qid, factor] :
       std::vector<std::pair<int, double>>{{4, 1e-7}, {5, 2e-7}}) {
    const SinkStats* sink = engine_.sink(qid);
    ASSERT_NE(sink, nullptr);
    ASSERT_FALSE(sink->recent.empty());
    for (const Tuple& t : sink->recent) {
      EXPECT_DOUBLE_EQ(t.field("scaled").AsDouble(),
                       t.field("price").AsDouble() * factor)
          << "query " << qid;
    }
  }
}

TEST_F(EngineTest, FailedInstallLeavesTheEngineUnchanged) {
  ASSERT_TRUE(engine_.InstallQuery(1, MapPlan(2.0)).ok());
  ASSERT_TRUE(engine_.InstallQuery(2, SelectPlan(5.0)).ok());
  engine_.Run(2.0);
  const int nodes = engine_.num_runtime_nodes();
  const std::vector<std::string> rows = Rows(engine_);

  // Each plan below reads the source both queries share, and fails only
  // once instantiation has subscribed to or created nodes.
  std::vector<std::pair<QueryPlan, StatusCode>> bad;
  QueryBuilder b;
  // Fails at the aggregate, above a select that would be new.
  const int sel = b.Select(b.Source("quotes"), "price", CompareOp::kGt,
                           Value(3.0));
  bad.emplace_back(
      b.Build(b.Aggregate(sel, AggFn::kAvg, "nope", "", {5.0, 5.0})),
      StatusCode::kInvalidArgument);
  // Fails at the unknown right source, after the new left select exists.
  const int left = b.Select(b.Source("quotes"), "price", CompareOp::kGt,
                            Value(3.0));
  bad.emplace_back(
      b.Build(b.Join(left, b.Source("nope"), "symbol", "symbol", 5.0)),
      StatusCode::kNotFound);
  // Fails at the union, over query 2's select and query 1's map, whose
  // schemas differ.
  const int src = b.Source("quotes");
  const int shared_sel = b.Select(src, "price", CompareOp::kGt, Value(5.0));
  const int shared_map = b.Map(src, "price", MapFn::kMul, 2.0, "scaled");
  bad.emplace_back(b.Build(b.Union(shared_sel, shared_map)),
                   StatusCode::kInvalidArgument);
  // Fails at the map, whose output would hold two fields named price,
  // above a new select.
  const int cheap = b.Select(b.Source("quotes"), "price", CompareOp::kGt,
                             Value(3.0));
  bad.emplace_back(b.Build(b.Map(cheap, "price", MapFn::kMul, 2.0, "price")),
                   StatusCode::kInvalidArgument);
  // Fails at the join, which renames the right symbol to r_symbol, the
  // name its new left map already writes.
  const int right = b.Source("quotes");
  const int tagged = b.Map(b.Source("quotes"), "price", MapFn::kMul, 1.0,
                           "r_symbol");
  bad.emplace_back(b.Build(b.Join(tagged, right, "symbol", "symbol", 5.0)),
                   StatusCode::kInvalidArgument);
  for (const auto& [plan, code] : bad) {
    EXPECT_EQ(engine_.InstallQuery(3, plan).code(), code);
    EXPECT_FALSE(engine_.IsInstalled(3));
    EXPECT_EQ(engine_.num_runtime_nodes(), nodes);
    EXPECT_EQ(Rows(engine_), rows);
  }

  // The engine still runs and still shares: query 3 joins query 2's
  // select and sees what query 2 sees from now on.
  ASSERT_TRUE(engine_.InstallQuery(3, SelectPlan(5.0)).ok());
  EXPECT_EQ(engine_.num_runtime_nodes(), nodes);
  const int64_t before = engine_.sink(2)->tuples;
  engine_.Run(2.0);
  EXPECT_GT(engine_.sink(3)->tuples, 0);
  EXPECT_EQ(engine_.sink(3)->tuples, engine_.sink(2)->tuples - before);
}

TEST_F(EngineTest, NamesThatSpellDelimitersDoNotShare) {
  // Unescaped, both selects below sign as
  // "select(price>d:0)<map(w>d:0)<map(price>d:0)<map(w=price*1.000000)<
  // source(quotes)>>", so query 2 would share query 1's select while its
  // own map is a different node.
  QueryBuilder b;
  const int m1 = b.Map(b.Source("quotes"), "price", MapFn::kMul, 1.0,
                       "w>d:0)<map(price>d:0)<map(w");
  const QueryPlan q1 =
      b.Build(b.Select(m1, "price", CompareOp::kGt, Value(0.0)));
  const int m2 = b.Map(b.Source("quotes"), "price", MapFn::kMul, 1.0,
                       "price>d:0)<map(w");
  const QueryPlan q2 = b.Build(
      b.Select(m2, "price>d:0)<map(w", CompareOp::kGt, Value(0.0)));
  EXPECT_NE(q1.NodeSignatures().back(), q2.NodeSignatures().back());
  ASSERT_TRUE(engine_.InstallQuery(1, q1).ok());
  ASSERT_TRUE(engine_.InstallQuery(2, q2).ok());
  EXPECT_EQ(engine_.num_runtime_nodes(), 5);  // Source, 2 maps, 2 selects.
  EXPECT_EQ(engine_.num_shared_nodes(), 1);   // The source.
  engine_.Run(2.0);
  EXPECT_GT(engine_.sink(1)->tuples, 0);
  EXPECT_EQ(engine_.sink(1)->tuples, engine_.sink(2)->tuples);
  // Had the selects been shared, this order would free query 1's map
  // while query 2 still held the select that lists it as input.
  ASSERT_TRUE(engine_.UninstallQuery(1).ok());
  ASSERT_TRUE(engine_.UninstallQuery(2).ok());
  EXPECT_EQ(engine_.num_runtime_nodes(), 0);

  // map(a = [b=c] * 2) and map([a=b] = c * 2) over one input, each
  // under a select on its own output field.
  const int c = b.Map(b.Source("quotes"), "price", MapFn::kMul, 1.0, "c");
  const int bc = b.Map(c, "price", MapFn::kMul, 1.0, "b=c");
  const int a = b.Map(bc, "b=c", MapFn::kMul, 2.0, "a");
  const QueryPlan q3 = b.Build(b.Select(a, "a", CompareOp::kGt, Value(0.0)));
  const int c2 = b.Map(b.Source("quotes"), "price", MapFn::kMul, 1.0, "c");
  const int bc2 = b.Map(c2, "price", MapFn::kMul, 1.0, "b=c");
  const int ab = b.Map(bc2, "c", MapFn::kMul, 2.0, "a=b");
  const QueryPlan q4 =
      b.Build(b.Select(ab, "a=b", CompareOp::kGt, Value(0.0)));
  ASSERT_TRUE(engine_.InstallQuery(3, q3).ok());
  ASSERT_TRUE(engine_.InstallQuery(4, q4).ok());
  EXPECT_EQ(engine_.num_runtime_nodes(), 7);
  engine_.Run(2.0);
  EXPECT_GT(engine_.sink(4)->tuples, 0);
  for (const Tuple& t : engine_.sink(4)->recent) {
    EXPECT_DOUBLE_EQ(t.field("a=b").AsDouble(), 2.0 * t.field("c").AsDouble());
  }
}

TEST_F(EngineTest, RandomInstallsMatchAFreshEngine) {
  std::vector<QueryPlan> catalogue;
  catalogue.push_back(SelectPlan(5.0));
  catalogue.push_back(SelectPlan(7.0));
  catalogue.push_back(MapPlan(2.0));
  {
    QueryBuilder b;
    const int sel = b.Select(b.Source("quotes"), "price", CompareOp::kGt,
                             Value(5.0));
    catalogue.push_back(
        b.Build(b.Aggregate(sel, AggFn::kAvg, "price", "symbol", {4.0, 2.0})));
  }
  {  // Names one source twice: one runtime node, counted once.
    QueryBuilder b;
    const int left = b.Source("quotes");
    const int right = b.Source("quotes");
    catalogue.push_back(b.Build(b.Join(left, right, "symbol", "symbol", 2.0)));
  }
  {  // A union of one subtree with itself.
    QueryBuilder b;
    const int sel = b.Select(b.Source("quotes"), "price", CompareOp::kGt,
                             Value(7.0));
    catalogue.push_back(b.Build(b.Union(sel, sel)));
  }
  {
    QueryBuilder b;
    const int m = b.Map(b.Source("quotes"), "price", MapFn::kMul, 2.0,
                        "scaled");
    catalogue.push_back(b.Build(b.Project(m, {"symbol", "scaled"})));
  }

  auto fresh_engine = [this] {
    auto engine = std::make_unique<Engine>(engine_.options());
    EXPECT_TRUE(engine
                    ->RegisterSource(std::make_unique<CounterSource>(
                        "quotes", /*rate=*/10.0))
                    .ok());
    return engine;
  };
  {  // A query counts once per node, even where its plan names it twice.
    const auto engine = fresh_engine();
    ASSERT_TRUE(engine->InstallQuery(1, catalogue[4]).ok());
    ASSERT_TRUE(engine->InstallQuery(2, catalogue[5]).ok());
    ASSERT_EQ(engine->num_runtime_nodes(), 4);
    for (const OperatorLoadInfo& info : engine->OperatorLoads()) {
      EXPECT_EQ(info.sharing_degree, info.is_source ? 2 : 1)
          << info.signature;
    }
  }

  Rng rng(20260);
  std::map<int, size_t> installed;  // Query id -> catalogue index.
  for (int step = 0; step < 200; ++step) {
    const int qid = static_cast<int>(rng.NextBounded(12));
    if (installed.count(qid) > 0) {
      ASSERT_TRUE(engine_.UninstallQuery(qid).ok());
      installed.erase(qid);
    } else {
      const size_t plan = rng.NextBounded(catalogue.size());
      ASSERT_TRUE(engine_.InstallQuery(qid, catalogue[plan]).ok());
      installed[qid] = plan;
    }
    if (step % 7 == 0) engine_.Run(1.0);

    const auto fresh = fresh_engine();
    for (const auto& [id, plan] : installed) {
      ASSERT_TRUE(fresh->InstallQuery(id, catalogue[plan]).ok());
    }
    ASSERT_EQ(SharingRows(engine_), SharingRows(*fresh)) << "step " << step;
    EXPECT_EQ(engine_.num_shared_nodes(), fresh->num_shared_nodes());
  }
  for (const auto& [id, plan] : installed) {
    ASSERT_TRUE(engine_.UninstallQuery(id).ok());
  }
  EXPECT_EQ(engine_.num_runtime_nodes(), 0);
  EXPECT_TRUE(engine_.OperatorLoads().empty());
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
  auto load =
      engine_.MeasuredLoad(plan.NodeSignatures()[plan.output_node]);
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

TEST_F(EngineTest, UnionReadsOlderInputFirst) {
  ASSERT_TRUE(engine_
                  .RegisterSource(std::make_unique<ParitySource>(
                      "seq", /*rate=*/4.0))
                  .ok());
  QueryBuilder b;
  int src = b.Source("seq");
  ASSERT_TRUE(engine_
                  .InstallQuery(1, b.Build(b.Select(src, "odd",
                                                    CompareOp::kEq,
                                                    Value(int64_t{1}))))
                  .ok());
  // union(select(even), select(odd)): port 1's select(odd) is shared
  // with query 1, so it is older than port 0's select(even).
  src = b.Source("seq");
  const int evens =
      b.Select(src, "odd", CompareOp::kEq, Value(int64_t{0}));
  const int odds = b.Select(src, "odd", CompareOp::kEq, Value(int64_t{1}));
  ASSERT_TRUE(engine_.InstallQuery(2, b.Build(b.Union(evens, odds))).ok());
  engine_.Run(3.0);
  // Each tick's arrivals (0-4, 5-8, 9-12 at 4 tuples/s) reach the union
  // older input first: the odd ones, then the even ones.
  std::vector<int64_t> seqs;
  for (const Tuple& t : engine_.sink(2)->recent) {
    seqs.push_back(t.field("seq").AsInt64());
  }
  EXPECT_EQ(seqs, (std::vector<int64_t>{1, 3, 0, 2, 4, 5, 7, 6, 8, 9, 11,
                                        10, 12}));
}

TEST_F(EngineTest, SelfJoinFeedsBothPortsPerTuple) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  ASSERT_TRUE(engine_
                  .InstallQuery(1, b.Build(b.Join(src, src, "symbol",
                                                  "symbol", 10.0)))
                  .ok());
  // Four quotes, B2 A3 B4 A5 (symbol, price). Each reaches port 0, then
  // port 1, before the next quote, so a quote meets itself once, on
  // port 1, and the earlier quotes of its symbol on both ports.
  engine_.Run(0.35);
  std::vector<std::string> pairs;
  for (const Tuple& t : engine_.sink(1)->recent) {
    pairs.push_back(t.field("symbol").AsString() +
                    t.field("price").ToString() + "/" +
                    t.field("r_symbol").AsString() +
                    t.field("r_price").ToString());
  }
  EXPECT_EQ(pairs, (std::vector<std::string>{"B2/B2", "A3/A3", "B4/B2",
                                             "B2/B4", "B4/B4", "A5/A3",
                                             "A3/A5", "A5/A5"}));
  EXPECT_EQ(engine_.sink(1)->tuples, 8);
}

TEST_F(EngineTest, IndexedSelectsMatchEvalCompare) {
  // Numeric selects run as members of their input's select index. Every
  // sink must hold what EvalCompare passes over a second instance of the
  // source, while queries come and go between runs.
  Engine engine(EngineOptions{1000.0, 1.0, /*sink_history=*/256});
  ASSERT_TRUE(engine
                  .RegisterSource(
                      std::make_unique<SpecialValuesSource>("special"))
                  .ok());
  SpecialValuesSource reference("special");

  const double inf = std::numeric_limits<double>::infinity();
  const CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                           CompareOp::kGe, CompareOp::kEq, CompareOp::kNe};
  const Value operands[] = {Value(int64_t{2}), Value(2.0), Value(2.5),
                            Value(-0.0), Value(inf),
                            Value(std::numeric_limits<double>::quiet_NaN())};
  struct Pred {
    std::string field;
    CompareOp op;
    Value operand;
    bool Passes(const Tuple& t) const {
      return EvalCompare(t.field(field), op, operand);
    }
  };
  enum class Shape { kSelect, kSelectOverSelect, kUnion };
  struct Case {
    Shape shape;
    Pred a;
    Pred b;  // The outer select, or the union's second input.
    QueryPlan plan;
  };
  std::vector<Case> cases;
  auto add = [&cases](Shape shape, Pred a, Pred b) {
    QueryBuilder qb;
    const int src = qb.Source("special");
    const int first = qb.Select(src, a.field, a.op, a.operand);
    int out = first;
    if (shape == Shape::kSelectOverSelect) {
      out = qb.Select(first, b.field, b.op, b.operand);
    } else if (shape == Shape::kUnion) {
      out = qb.Union(first, qb.Select(src, b.field, b.op, b.operand));
    }
    cases.push_back(Case{shape, std::move(a), std::move(b), qb.Build(out)});
  };
  // Every op and operand over both fields, each a query's output select.
  for (const char* field : {"i", "d"}) {
    for (CompareOp op : ops) {
      for (const Value& operand : operands) {
        add(Shape::kSelect, Pred{field, op, operand}, Pred{});
      }
    }
  }
  // Selects over selects, and unions of two members of one index.
  for (size_t k = 0; k < 12; ++k) {
    const std::string inner = k % 2 == 0 ? "i" : "d";
    add(Shape::kSelectOverSelect,
        Pred{inner, ops[k % 6], operands[(k + 1) % 6]},
        Pred{k % 3 == 0 ? inner : "d", ops[(k + 3) % 6],
             operands[(k * 5) % 6]});
    add(Shape::kUnion, Pred{inner, ops[(k + 2) % 6], operands[k % 6]},
        Pred{inner, ops[(k + 5) % 6], operands[(k + 4) % 6]});
  }

  // The seq numbers each installed query's sink should hold.
  std::map<int, std::vector<int64_t>> expected;
  Rng rng(20261);
  std::vector<Tuple> arrivals;
  for (int round = 0; round < 6; ++round) {
    // Uninstall about half of the installed queries, install about half
    // of the others.
    for (size_t q = 0; q < cases.size(); ++q) {
      const int id = static_cast<int>(q);
      if (!rng.NextBool(0.5)) continue;
      if (expected.count(id) > 0) {
        ASSERT_TRUE(engine.UninstallQuery(id).ok());
        expected.erase(id);
      } else {
        ASSERT_TRUE(engine.InstallQuery(id, cases[q].plan).ok());
        expected[id];
      }
    }
    engine.Run(2.0);
    arrivals.clear();
    reference.EmitUntil(engine.now(), &arrivals);
    for (auto& [id, seqs] : expected) {
      const Case& c = cases[static_cast<size_t>(id)];
      for (const Tuple& t : arrivals) {
        const int64_t seq = t.field("seq").AsInt64();
        const bool a = c.a.Passes(t);
        if (c.shape == Shape::kSelect && a) seqs.push_back(seq);
        if (c.shape == Shape::kSelectOverSelect && a && c.b.Passes(t)) {
          seqs.push_back(seq);
        }
        if (c.shape == Shape::kUnion) {
          if (a) seqs.push_back(seq);
          if (c.b.Passes(t)) seqs.push_back(seq);
        }
      }
    }
    for (const auto& [id, seqs] : expected) {
      SCOPED_TRACE("round " + std::to_string(round) + ", query " +
                   std::to_string(id));
      const SinkStats* sink = engine.sink(id);
      ASSERT_NE(sink, nullptr);
      std::vector<int64_t> got;
      for (const Tuple& t : sink->recent) {
        got.push_back(t.field("seq").AsInt64());
      }
      std::vector<int64_t> want = seqs;
      ASSERT_LE(want.size(), 256u);
      EXPECT_EQ(sink->tuples, static_cast<int64_t>(want.size()));
      if (cases[static_cast<size_t>(id)].shape == Shape::kUnion) {
        // A union reads its older input first each tick, so its order
        // depends on which input was created first: compare multisets.
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
      }
      EXPECT_EQ(got, want);
    }
  }
  EXPECT_GT(expected.size(), 0u);
}

TEST_F(EngineTest, CountOverStringFieldRuns) {
  // count reads no field, so counting the string field symbol counts the
  // same tuples as counting the numeric field price.
  int id = 0;
  for (const char* field : {"symbol", "price"}) {
    QueryBuilder b;
    const int src = b.Source("quotes");
    ASSERT_TRUE(engine_
                    .InstallQuery(++id, b.Build(b.Aggregate(
                                            src, AggFn::kCount, field, "",
                                            {10.0, 10.0})))
                    .ok());
  }
  engine_.Run(15.0);
  ASSERT_EQ(engine_.sink(1)->tuples, 1);
  ASSERT_EQ(engine_.sink(2)->tuples, 1);
  const double symbols = engine_.sink(1)->recent[0].field("value").AsDouble();
  EXPECT_GT(symbols, 0.0);
  EXPECT_EQ(symbols, engine_.sink(2)->recent[0].field("value").AsDouble());
}

TEST_F(EngineTest, DerivedSchemaMatchesEmittedTuples) {
  // One plan per operator kind over the quotes source (symbol, price),
  // each window closing within the run.
  std::vector<std::pair<std::string, QueryPlan>> kinds;
  auto add = [&kinds](const char* kind, QueryPlan plan) {
    std::pair<std::string, QueryPlan> entry(kind, std::move(plan));
    kinds.push_back(std::move(entry));
  };
  QueryBuilder b;
  int src = b.Source("quotes");
  add("select", b.Build(b.Select(src, "price", CompareOp::kGt, Value(5.0))));
  src = b.Source("quotes");
  add("project", b.Build(b.Project(src, {"price", "symbol"})));
  src = b.Source("quotes");
  add("map", b.Build(b.Map(src, "price", MapFn::kMul, 2.0, "scaled")));
  src = b.Source("quotes");
  add("grouped aggregate", b.Build(b.Aggregate(src, AggFn::kAvg, "price",
                                               "symbol", {2.0, 2.0})));
  src = b.Source("quotes");
  add("ungrouped aggregate",
      b.Build(b.Aggregate(src, AggFn::kCount, "", "", {2.0, 1.0})));
  src = b.Source("quotes");
  // Every right name is renamed r_<name>.
  add("join", b.Build(b.Join(src, src, "symbol", "symbol", 1.0)));
  src = b.Source("quotes");
  add("union", b.Build(b.Union(src, src)));
  src = b.Source("quotes");
  add("topk", b.Build(b.TopK(src, 3, "price", 2.0)));
  src = b.Source("quotes");
  add("distinct", b.Build(b.Distinct(src, "symbol", 2.0)));

  std::vector<SchemaPtr> derived;
  for (const auto& [kind, plan] : kinds) {
    SCOPED_TRACE(kind);
    const Result<SchemaPtr> schema = DeriveSchema(engine_, plan);
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    derived.push_back(*schema);
    EXPECT_TRUE(EstimatePlanLoad(engine_, plan, {}).ok());
    ASSERT_TRUE(
        engine_.InstallQuery(static_cast<int>(derived.size()), plan).ok());
  }
  engine_.Run(5.0);
  for (size_t i = 0; i < kinds.size(); ++i) {
    SCOPED_TRACE(kinds[i].first);
    const SinkStats* sink = engine_.sink(static_cast<int>(i + 1));
    ASSERT_FALSE(sink->recent.empty());
    for (const Tuple& t : sink->recent) {
      EXPECT_EQ(*t.schema(), *derived[i]);
    }
  }
  EXPECT_TRUE(derived[5]->HasField("r_symbol"));  // The join renamed.

  // Outputs that would repeat a field name, whose second value no read
  // could reach, are refused by the schema, the estimate and the install.
  std::vector<std::pair<std::string, QueryPlan>> repeats;
  src = b.Source("quotes");
  const int cheap = b.Select(src, "price", CompareOp::kGt, Value(3.0));
  repeats.emplace_back(
      "map onto its input field",
      b.Build(b.Map(cheap, "price", MapFn::kMul, 2.0, "price")));
  src = b.Source("quotes");
  repeats.emplace_back("project naming a field twice",
                       b.Build(b.Project(src, {"price", "price"})));
  src = b.Source("quotes");
  const int tagged = b.Map(src, "price", MapFn::kMul, 1.0, "r_symbol");
  repeats.emplace_back(
      "join renaming onto a left field",
      b.Build(b.Join(tagged, src, "symbol", "symbol", 5.0)));
  src = b.Source("quotes");
  const int valued = b.Map(src, "price", MapFn::kMul, 1.0, "value");
  repeats.emplace_back("aggregate grouped by a field named value",
                       b.Build(b.Aggregate(valued, AggFn::kCount, "",
                                           "value", {2.0, 2.0})));
  const int nodes = engine_.num_runtime_nodes();
  for (const auto& [what, plan] : repeats) {
    SCOPED_TRACE(what);
    EXPECT_EQ(DeriveSchema(engine_, plan).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(EstimatePlanLoad(engine_, plan, {}).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine_.InstallQuery(100, plan).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engine_.num_runtime_nodes(), nodes);
  }
}

}  // namespace
}  // namespace streambid::stream
