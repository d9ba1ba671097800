// Copyright 2026 The streambid Authors
// Unit tests for each stream operator in isolation.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batch_feed.h"
#include "stream/operators/aggregate.h"
#include "stream/operators/join.h"
#include "stream/operators/map.h"
#include "stream/operators/project.h"
#include "stream/operators/select.h"
#include "stream/operators/union_op.h"
#include "stream/query.h"

namespace streambid::stream {
namespace {

SchemaPtr QuoteSchema() {
  return MakeSchema({{"symbol", ValueType::kString},
                     {"price", ValueType::kDouble},
                     {"volume", ValueType::kInt64}});
}

Tuple Quote(const SchemaPtr& s, const std::string& sym, double price,
            int64_t volume, VirtualTime ts) {
  return Tuple(s, {Value(sym), Value(price), Value(volume)}, ts);
}

/// The schema a map writing `name` over `input` emits.
SchemaPtr MapSchema(const SchemaPtr& input, const std::string& name) {
  std::vector<Field> fields = input->fields();
  fields.push_back({name, ValueType::kDouble});
  return MakeSchema(std::move(fields));
}

/// The schema an aggregate emits: its group field, if any, then
/// window_end and value.
SchemaPtr AggSchema(std::vector<Field> group = {}) {
  group.push_back({"window_end", ValueType::kDouble});
  group.push_back({"value", ValueType::kDouble});
  return MakeSchema(std::move(group));
}

/// The schema the plan derives for join(left.left_key == right.right_key).
SchemaPtr JoinSchema(const SchemaPtr& left, const SchemaPtr& right,
                     const std::string& left_key,
                     const std::string& right_key) {
  OpSpec spec;
  spec.kind = OpKind::kJoin;
  spec.left_key = left_key;
  spec.right_key = right_key;
  Result<SchemaPtr> schema = spec.OutputSchema({left, right});
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return *schema;
}

TEST(SelectOperatorTest, FiltersOnPredicate) {
  SchemaPtr s = QuoteSchema();
  SelectOperator sel(s, "price", CompareOp::kGt, Value(100.0));
  std::vector<Tuple> out;
  sel.Process(0, Quote(s, "IBM", 101.0, 10, 0.0), &out);
  sel.Process(0, Quote(s, "IBM", 99.0, 10, 1.0), &out);
  sel.Process(0, Quote(s, "IBM", 100.0, 10, 2.0), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].field("price").AsDouble(), 101.0);
  EXPECT_EQ(out[0].schema(), s);  // A select emits its input tuples.
}

TEST(SelectOperatorTest, AllCompareOps) {
  SchemaPtr s = QuoteSchema();
  auto passes = [&s](CompareOp op, double price) {
    SelectOperator sel(s, "price", op, Value(10.0));
    std::vector<Tuple> out;
    sel.Process(0, Quote(s, "X", price, 1, 0.0), &out);
    return !out.empty();
  };
  EXPECT_TRUE(passes(CompareOp::kLt, 9.0));
  EXPECT_FALSE(passes(CompareOp::kLt, 10.0));
  EXPECT_TRUE(passes(CompareOp::kLe, 10.0));
  EXPECT_TRUE(passes(CompareOp::kGt, 11.0));
  EXPECT_FALSE(passes(CompareOp::kGt, 10.0));
  EXPECT_TRUE(passes(CompareOp::kGe, 10.0));
  EXPECT_TRUE(passes(CompareOp::kEq, 10.0));
  EXPECT_FALSE(passes(CompareOp::kEq, 10.5));
  EXPECT_TRUE(passes(CompareOp::kNe, 10.5));
}

TEST(SelectOperatorTest, StringPredicate) {
  SchemaPtr s = QuoteSchema();
  SelectOperator sel(s, "symbol", CompareOp::kEq, Value("IBM"));
  std::vector<Tuple> out;
  sel.Process(0, Quote(s, "IBM", 1.0, 1, 0.0), &out);
  sel.Process(0, Quote(s, "AAPL", 1.0, 1, 0.0), &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(SelectOperatorTest, AgreesWithEvalCompare) {
  // The engine runs a select operator only for a string field or a string
  // operand (a numeric select is a SelectIndex member; see
  // select_index_test.cc). Across kinds only == and != are defined: ==
  // is false and != true.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    ValueType field_type;
    std::vector<Value> fields;
    std::vector<Value> operands;
  };
  const Case cases[] = {
      {ValueType::kString,
       {Value("2"), Value("IBM")},
       {Value(int64_t{2}), Value(2.0), Value(nan), Value("IBM")}},
      {ValueType::kDouble,
       {Value(2.0), Value(nan)},
       {Value("2")}},
  };
  for (const Case& c : cases) {
    const SchemaPtr s = MakeSchema({{"x", c.field_type}});
    for (CompareOp op : {CompareOp::kEq, CompareOp::kNe}) {
      for (const Value& operand : c.operands) {
        SelectOperator sel(s, "x", op, operand);
        for (const Value& field : c.fields) {
          SCOPED_TRACE(field.ToString() + " " + CompareOpToken(op) + " " +
                       operand.ToString());
          std::vector<Tuple> out;
          sel.Process(0, Tuple(s, {field}, 0.0), &out);
          EXPECT_EQ(!out.empty(), EvalCompare(field, op, operand));
        }
      }
    }
  }
}

TEST(ProjectOperatorTest, KeepsRequestedFields) {
  SchemaPtr s = QuoteSchema();
  const SchemaPtr kept = MakeSchema(
      {{"price", ValueType::kDouble}, {"symbol", ValueType::kString}});
  ProjectOperator proj(s, {"price", "symbol"}, kept);
  std::vector<Tuple> out;
  proj.Process(0, Quote(s, "IBM", 5.0, 9, 1.5), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].schema(), kept);
  EXPECT_DOUBLE_EQ(out[0].value(0).AsDouble(), 5.0);
  EXPECT_EQ(out[0].value(1).AsString(), "IBM");
  EXPECT_DOUBLE_EQ(out[0].timestamp(), 1.5);
}

TEST(MapOperatorTest, AppendsComputedField) {
  SchemaPtr s = QuoteSchema();
  const SchemaPtr mapped = MapSchema(s, "double_price");
  MapOperator map(s, "price", MapFn::kMul, 2.0, mapped);
  std::vector<Tuple> out;
  map.Process(0, Quote(s, "IBM", 7.0, 1, 0.0), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].schema(), mapped);
  EXPECT_DOUBLE_EQ(out[0].field("double_price").AsDouble(), 14.0);
}

TEST(MapOperatorTest, AllFns) {
  SchemaPtr s = QuoteSchema();
  const SchemaPtr mapped = MapSchema(s, "y");
  auto compute = [&s, &mapped](MapFn fn, double operand) {
    MapOperator map(s, "price", fn, operand, mapped);
    std::vector<Tuple> out;
    map.Process(0, Quote(s, "X", 8.0, 1, 0.0), &out);
    return out[0].field("y").AsDouble();
  };
  EXPECT_DOUBLE_EQ(compute(MapFn::kAdd, 2.0), 10.0);
  EXPECT_DOUBLE_EQ(compute(MapFn::kSub, 2.0), 6.0);
  EXPECT_DOUBLE_EQ(compute(MapFn::kMul, 2.0), 16.0);
  EXPECT_DOUBLE_EQ(compute(MapFn::kDiv, 2.0), 4.0);
}

TEST(AggregateOperatorTest, TumblingCountEmitsOnAdvance) {
  SchemaPtr s = QuoteSchema();
  AggregateOperator agg(s, AggFn::kCount, "price", "", {10.0, 10.0},
                        AggSchema());
  std::vector<Tuple> out;
  agg.Process(0, Quote(s, "A", 1.0, 1, 1.0), &out);
  agg.Process(0, Quote(s, "A", 2.0, 1, 5.0), &out);
  EXPECT_TRUE(out.empty());  // Window [0,10) still open.
  agg.AdvanceTime(9.0, &out);
  EXPECT_TRUE(out.empty());
  agg.AdvanceTime(10.0, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].field("value").AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(out[0].field("window_end").AsDouble(), 10.0);
}

TEST(AggregateOperatorTest, GroupedAverages) {
  SchemaPtr s = QuoteSchema();
  AggregateOperator agg(s, AggFn::kAvg, "price", "symbol", {10.0, 10.0},
                        AggSchema({s->field(0)}));
  std::vector<Tuple> out;
  agg.Process(0, Quote(s, "IBM", 10.0, 1, 1.0), &out);
  agg.Process(0, Quote(s, "IBM", 20.0, 1, 2.0), &out);
  agg.Process(0, Quote(s, "AAPL", 5.0, 1, 3.0), &out);
  agg.AdvanceTime(10.0, &out);
  ASSERT_EQ(out.size(), 2u);
  // Groups emit in key order: AAPL then IBM.
  EXPECT_EQ(out[0].field("symbol").AsString(), "AAPL");
  EXPECT_DOUBLE_EQ(out[0].field("value").AsDouble(), 5.0);
  EXPECT_EQ(out[1].field("symbol").AsString(), "IBM");
  EXPECT_DOUBLE_EQ(out[1].field("value").AsDouble(), 15.0);
}

TEST(AggregateOperatorTest, SlidingWindowsOverlap) {
  SchemaPtr s = QuoteSchema();
  // Size 10, slide 5: a tuple at t=7 belongs to windows [0,10) and
  // [5,15).
  AggregateOperator agg(s, AggFn::kSum, "price", "", {10.0, 5.0},
                        AggSchema());
  std::vector<Tuple> out;
  agg.Process(0, Quote(s, "A", 3.0, 1, 7.0), &out);
  agg.AdvanceTime(10.0, &out);
  ASSERT_EQ(out.size(), 1u);  // [0,10) closed.
  EXPECT_DOUBLE_EQ(out[0].field("value").AsDouble(), 3.0);
  out.clear();
  agg.AdvanceTime(15.0, &out);
  ASSERT_EQ(out.size(), 1u);  // [5,15) closed, contains the same tuple.
  EXPECT_DOUBLE_EQ(out[0].field("value").AsDouble(), 3.0);
}

TEST(AggregateOperatorTest, MinMax) {
  SchemaPtr s = QuoteSchema();
  AggregateOperator mn(s, AggFn::kMin, "price", "", {10.0, 10.0},
                       AggSchema());
  AggregateOperator mx(s, AggFn::kMax, "price", "", {10.0, 10.0},
                       AggSchema());
  std::vector<Tuple> out;
  for (double p : {5.0, 1.0, 9.0}) {
    mn.Process(0, Quote(s, "A", p, 1, 2.0), &out);
    mx.Process(0, Quote(s, "A", p, 1, 2.0), &out);
  }
  out.clear();
  mn.AdvanceTime(10.0, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].field("value").AsDouble(), 1.0);
  out.clear();
  mx.AdvanceTime(10.0, &out);
  EXPECT_DOUBLE_EQ(out[0].field("value").AsDouble(), 9.0);
}

TEST(AggregateOperatorTest, DoubleGroupKeysKeepLastValue) {
  // Group keys are Value::ToKey() strings, which print doubles at six
  // significant digits: 1.0000001 and 1.0000002 both key as "d:1", so
  // they fold into one group that carries the last value seen.
  SchemaPtr s = MakeSchema({{"level", ValueType::kDouble},
                            {"x", ValueType::kDouble}});
  ASSERT_EQ(Value(1.0000001).ToKey(), "d:1");
  ASSERT_EQ(Value(1.0000002).ToKey(), "d:1");
  AggregateOperator agg(s, AggFn::kSum, "x", "level", {10.0, 10.0},
                        AggSchema({s->field(0)}));
  std::vector<Tuple> out;
  agg.Process(0, Tuple(s, {Value(1.0000001), Value(2.0)}, 1.0), &out);
  agg.Process(0, Tuple(s, {Value(1.0000002), Value(3.0)}, 2.0), &out);
  agg.AdvanceTime(10.0, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].field("level").AsDouble(), 1.0000002);
  EXPECT_DOUBLE_EQ(out[0].field("value").AsDouble(), 5.0);
}

TEST(AggregateOperatorTest, GroupsEmitInKeyOrder) {
  // Groups leave in Value::ToKey() order, which compares the spelling:
  // "i:10" < "i:2", and "s:a" < "s:b".
  SchemaPtr sensors = MakeSchema({{"sensor", ValueType::kInt64},
                                  {"x", ValueType::kDouble}});
  AggregateOperator by_int(sensors, AggFn::kSum, "x", "sensor",
                           {10.0, 10.0}, AggSchema({sensors->field(0)}));
  std::vector<Tuple> out;
  by_int.Process(0, Tuple(sensors, {Value(int64_t{2}), Value(1.0)}, 1.0),
                 &out);
  by_int.Process(0, Tuple(sensors, {Value(int64_t{10}), Value(2.0)}, 2.0),
                 &out);
  by_int.AdvanceTime(10.0, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].field("sensor").AsInt64(), 10);
  EXPECT_EQ(out[1].field("sensor").AsInt64(), 2);

  SchemaPtr s = QuoteSchema();
  AggregateOperator by_string(s, AggFn::kSum, "price", "symbol",
                              {10.0, 10.0}, AggSchema({s->field(0)}));
  out.clear();
  by_string.Process(0, Quote(s, "b", 1.0, 1, 1.0), &out);
  by_string.Process(0, Quote(s, "a", 2.0, 1, 2.0), &out);
  by_string.AdvanceTime(10.0, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].field("symbol").AsString(), "a");
  EXPECT_EQ(out[1].field("symbol").AsString(), "b");
}

// --- Batches and window runs ------------------------------------------

/// sum(price) group-by symbol with no window run: every tuple walks its
/// windows from floor(ts / slide) down, as AggregateOperator's Walk does.
std::vector<std::string> ReferenceSums(const BatchFeed& feed,
                                       WindowSpec window) {
  const SchemaPtr schema = AggSchema({{"symbol", ValueType::kString}});
  std::map<VirtualTime, std::map<std::string, std::pair<Value, double>>>
      open;
  std::vector<std::string> out;
  auto advance = [&](VirtualTime now) {
    while (!open.empty() && open.begin()->first + window.size <= now) {
      const VirtualTime end = open.begin()->first + window.size;
      for (const auto& [key, group] : open.begin()->second) {
        out.push_back(Exact(Tuple(
            schema, {group.first, Value(end), Value(group.second)}, end)));
      }
      open.erase(open.begin());
    }
  };
  for (size_t i = 0; i <= feed.tuples.size(); ++i) {
    auto at = feed.advances.find(i);
    if (at != feed.advances.end()) advance(at->second);
    if (i == feed.tuples.size()) break;
    const Tuple& t = feed.tuples[i];
    const VirtualTime ts = t.timestamp();
    for (double k = std::floor(ts / window.slide);; k -= 1.0) {
      const VirtualTime s = k * window.slide;
      if (s < 0.0 && k < 0.0) break;
      if (s + window.size <= ts) break;
      auto& group = open[s][t.value(0).ToKey()];
      group.first = t.value(0);
      group.second += t.value(1).AsDouble();
      if (k == 0.0) break;
    }
  }
  advance(kCloseAll);
  return out;
}

/// Checks the grouped sum over `window` against ReferenceSums under every
/// batching of `feed`.
void ExpectSumsMatchReference(const BatchFeed& feed, WindowSpec window) {
  const SchemaPtr s = QuoteSchema();
  ExpectEveryBatchingEmits(
      [&] {
        return std::make_unique<AggregateOperator>(
            s, AggFn::kSum, "price", "symbol", window,
            AggSchema({s->field(0)}));
      },
      feed, ReferenceSums(feed, window));
}

/// Quotes at `stamps`, alternating two symbols, with distinct prices.
BatchFeed QuotesAt(const std::vector<VirtualTime>& stamps) {
  const SchemaPtr s = QuoteSchema();
  BatchFeed feed;
  for (size_t i = 0; i < stamps.size(); ++i) {
    feed.tuples.push_back(Quote(s, i % 2 == 0 ? "IBM" : "AAPL",
                                1.0 + 0.25 * static_cast<double>(i), 1,
                                stamps[i]));
  }
  return feed;
}

TEST(AggregateBatchTest, TumblingWindows) {
  ExpectSumsMatchReference(
      QuotesAt({0.0, 1.5, 3.0, 9.5, 9.99, 10.0, 12.0, 19.0, 25.0}),
      {10.0, 10.0});
}

TEST(AggregateBatchTest, SlidingWindows) {
  ExpectSumsMatchReference(
      QuotesAt({0.0, 2.0, 4.9, 5.0, 7.5, 9.99, 10.0, 14.0, 15.0, 21.0}),
      {10.0, 5.0});
}

TEST(AggregateBatchTest, SizeNotAMultipleOfSlide) {
  ExpectSumsMatchReference(
      QuotesAt({0.5, 2.9, 3.0, 5.5, 8.9, 9.0, 9.5, 10.0, 11.5, 12.0, 13.1}),
      {10.0, 3.0});
}

TEST(AggregateBatchTest, BatchStraddlesAWindowEnd) {
  // One batch holds the last tuples of [0,10) and the first of [10,20),
  // with no AdvanceTime between them.
  const BatchFeed feed =
      QuotesAt({8.0, 9.0, 9.999, 10.0, 10.001, 11.0, 19.999, 20.0});
  ExpectSumsMatchReference(feed, {10.0, 10.0});
  ExpectSumsMatchReference(feed, {10.0, 5.0});
  ExpectSumsMatchReference(feed, {10.0, 3.0});
}

TEST(AggregateBatchTest, OutOfOrderTimestampsInOneBatch) {
  // 9.5 and 11.5 share floor(ts / slide) = 3 under slide 3, but 9.5 also
  // belongs to [0,10): a tuple older than the one that resolved the
  // windows must walk its own.
  const BatchFeed feed =
      QuotesAt({11.5, 9.5, 12.0, 3.0, 14.0, 9.0, 11.9, 0.5});
  ExpectSumsMatchReference(feed, {10.0, 3.0});
  ExpectSumsMatchReference(feed, {10.0, 4.0});
  ExpectSumsMatchReference(feed, {10.0, 10.0});
}

TEST(AggregateBatchTest, TenthsWhereTheFloorRoundsDown) {
  // ts = k * 0.1: floor(ts / 0.1) is k - 1 at k = 43, 81, 86 and 91, and
  // under tumbling windows such a tuple falls in no window at all.
  ASSERT_EQ(std::floor((43 * 0.1) / 0.1), 42.0);
  std::vector<VirtualTime> stamps;
  for (int k = 0; k < 96; ++k) stamps.push_back(k * 0.1);
  const BatchFeed feed = QuotesAt(stamps);
  ExpectSumsMatchReference(feed, {0.1, 0.1});
  ExpectSumsMatchReference(feed, {0.3, 0.1});
}

TEST(AggregateBatchTest, StartsThatRoundTogether) {
  // Near ts = 8e14 a double's spacing (0.125) exceeds the slide, so two
  // k can round to one start and a walk adds to that window twice; such
  // a walk must leave no run for the next tuple to reuse.
  ASSERT_EQ(8e15 * 0.1, (8e15 - 1.0) * 0.1);
  ExpectSumsMatchReference(
      QuotesAt({8e14, 8e14, 8e14 + 0.125, 8e14 + 0.125, 8e14 + 0.25}),
      {0.3, 0.1});
}

TEST(AggregateBatchTest, AdvanceBetweenBatchesDropsTheRun) {
  // 12 resolves [5,15) and [10,20); AdvanceTime(15) closes [5,15), so the
  // late 13 must walk again (and reopen [5,15)) rather than add to the
  // closed window.
  BatchFeed feed = QuotesAt({12.0, 13.0, 13.5, 16.0, 14.0});
  feed.advances = {{1, 15.0}, {4, 17.0}};
  ExpectSumsMatchReference(feed, {10.0, 5.0});
  ExpectSumsMatchReference(feed, {10.0, 10.0});
}

TEST(JoinOperatorTest, MatchesWithinWindow) {
  SchemaPtr quotes = QuoteSchema();
  SchemaPtr news = MakeSchema({{"company", ValueType::kString},
                               {"sentiment", ValueType::kDouble}});
  JoinOperator join(quotes, news, "symbol", "company", 10.0,
                    JoinSchema(quotes, news, "symbol", "company"));
  std::vector<Tuple> out;
  join.Process(0, Quote(quotes, "IBM", 100.0, 1, 1.0), &out);
  EXPECT_TRUE(out.empty());
  join.Process(1, Tuple(news, {Value("IBM"), Value(0.5)}, 5.0), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].field("symbol").AsString(), "IBM");
  EXPECT_DOUBLE_EQ(out[0].field("sentiment").AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(out[0].timestamp(), 5.0);
}

TEST(JoinOperatorTest, NoMatchOutsideWindow) {
  SchemaPtr quotes = QuoteSchema();
  SchemaPtr news = MakeSchema({{"company", ValueType::kString},
                               {"sentiment", ValueType::kDouble}});
  JoinOperator join(quotes, news, "symbol", "company", 10.0,
                    JoinSchema(quotes, news, "symbol", "company"));
  std::vector<Tuple> out;
  join.Process(0, Quote(quotes, "IBM", 100.0, 1, 1.0), &out);
  join.Process(1, Tuple(news, {Value("IBM"), Value(0.5)}, 12.0), &out);
  EXPECT_TRUE(out.empty());
}

TEST(JoinOperatorTest, DifferentKeysDoNotMatch) {
  SchemaPtr quotes = QuoteSchema();
  SchemaPtr news = MakeSchema({{"company", ValueType::kString},
                               {"sentiment", ValueType::kDouble}});
  JoinOperator join(quotes, news, "symbol", "company", 10.0,
                    JoinSchema(quotes, news, "symbol", "company"));
  std::vector<Tuple> out;
  join.Process(0, Quote(quotes, "IBM", 100.0, 1, 1.0), &out);
  join.Process(1, Tuple(news, {Value("AAPL"), Value(0.1)}, 2.0), &out);
  EXPECT_TRUE(out.empty());
}

TEST(JoinOperatorTest, EvictionDropsStaleTuples) {
  SchemaPtr quotes = QuoteSchema();
  SchemaPtr news = MakeSchema({{"company", ValueType::kString},
                               {"sentiment", ValueType::kDouble}});
  JoinOperator join(quotes, news, "symbol", "company", 10.0,
                    JoinSchema(quotes, news, "symbol", "company"));
  std::vector<Tuple> out;
  join.Process(0, Quote(quotes, "IBM", 1.0, 1, 0.0), &out);
  EXPECT_EQ(join.BufferedTuples(), 1u);
  join.AdvanceTime(20.0, &out);
  EXPECT_EQ(join.BufferedTuples(), 0u);
}

TEST(JoinOperatorTest, CollidingFieldNamesPrefixed) {
  SchemaPtr a = MakeSchema({{"k", ValueType::kString},
                            {"x", ValueType::kDouble}});
  SchemaPtr b = MakeSchema({{"k", ValueType::kString},
                            {"y", ValueType::kDouble}});
  JoinOperator join(a, b, "k", "k", 5.0, JoinSchema(a, b, "k", "k"));
  std::vector<Tuple> out;
  join.Process(0, Tuple(a, {Value("K"), Value(1.0)}, 1.0), &out);
  join.Process(1, Tuple(b, {Value("K"), Value(2.0)}, 2.0), &out);
  ASSERT_EQ(out.size(), 1u);
  const Schema& schema = *out[0].schema();
  ASSERT_EQ(schema.num_fields(), 4);
  EXPECT_EQ(schema.field(0).name, "k");
  EXPECT_EQ(schema.field(1).name, "x");
  EXPECT_EQ(schema.field(2).name, "r_k");
  EXPECT_EQ(schema.field(3).name, "y");
  EXPECT_DOUBLE_EQ(out[0].field("x").AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(out[0].field("y").AsDouble(), 2.0);
}

TEST(UnionOperatorTest, MergesBothPorts) {
  SchemaPtr s = QuoteSchema();
  UnionOperator u(s, s);
  std::vector<Tuple> out;
  u.Process(0, Quote(s, "A", 1.0, 1, 0.0), &out);
  u.Process(1, Quote(s, "B", 2.0, 1, 0.5), &out);
  EXPECT_EQ(out.size(), 2u);
}

}  // namespace
}  // namespace streambid::stream
