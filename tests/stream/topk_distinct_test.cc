// Copyright 2026 The streambid Authors
// Windowed top-k and distinct operators, plus their engine integration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "batch_feed.h"
#include "stream/engine.h"
#include "stream/operators/distinct.h"
#include "stream/operators/topk.h"
#include "stream/query_builder.h"

namespace streambid::stream {
namespace {

SchemaPtr QuoteSchema() {
  return MakeSchema({{"symbol", ValueType::kString},
                     {"price", ValueType::kDouble}});
}

Tuple Quote(const SchemaPtr& s, const std::string& sym, double price,
            VirtualTime ts) {
  return Tuple(s, {Value(sym), Value(price)}, ts);
}

TEST(TopKOperatorTest, EmitsLargestKOnWindowClose) {
  SchemaPtr s = QuoteSchema();
  TopKOperator topk(s, /*k=*/2, "price", /*window=*/10.0);
  std::vector<Tuple> out;
  for (double p : {5.0, 9.0, 1.0, 7.0}) {
    topk.Process(0, Quote(s, "X", p, 2.0), &out);
  }
  EXPECT_TRUE(out.empty());
  topk.AdvanceTime(10.0, &out);
  ASSERT_EQ(out.size(), 2u);
  // Descending rank order.
  EXPECT_DOUBLE_EQ(out[0].field("price").AsDouble(), 9.0);
  EXPECT_DOUBLE_EQ(out[1].field("price").AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(out[0].timestamp(), 10.0);
}

TEST(TopKOperatorTest, EqualRankDisplacesTheOlderSmallest) {
  SchemaPtr s = QuoteSchema();
  TopKOperator topk(s, /*k=*/2, "price", /*window=*/10.0);
  std::vector<Tuple> out;
  topk.Process(0, Quote(s, "A", 5.0, 1.0), &out);
  topk.Process(0, Quote(s, "B", 9.0, 2.0), &out);
  topk.Process(0, Quote(s, "C", 5.0, 3.0), &out);  // Displaces A.
  topk.Process(0, Quote(s, "D", 4.0, 4.0), &out);  // Below C: dropped.
  topk.AdvanceTime(10.0, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].field("symbol").AsString(), "B");
  EXPECT_EQ(out[1].field("symbol").AsString(), "C");
}

TEST(TopKOperatorTest, FewerThanKTuplesAllEmitted) {
  SchemaPtr s = QuoteSchema();
  TopKOperator topk(s, 5, "price", 10.0);
  std::vector<Tuple> out;
  topk.Process(0, Quote(s, "X", 3.0, 1.0), &out);
  topk.AdvanceTime(10.0, &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(TopKOperatorTest, WindowsAreIndependent) {
  SchemaPtr s = QuoteSchema();
  TopKOperator topk(s, 1, "price", 10.0);
  std::vector<Tuple> out;
  topk.Process(0, Quote(s, "X", 9.0, 5.0), &out);    // Window [0,10).
  topk.Process(0, Quote(s, "X", 2.0, 15.0), &out);   // Window [10,20).
  topk.AdvanceTime(20.0, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].field("price").AsDouble(), 9.0);
  EXPECT_DOUBLE_EQ(out[1].field("price").AsDouble(), 2.0);
}

/// topk(k by price over `size`) with no window run: every tuple looks up
/// window floor(ts / size) * size, and a window keeps its k largest
/// prices, the newer of two equal ones.
std::vector<std::string> ReferenceTopK(const BatchFeed& feed, int k,
                                       VirtualTime size) {
  std::map<VirtualTime, std::vector<size_t>> open;  // Arrival indexes.
  std::vector<std::string> out;
  auto advance = [&](VirtualTime now) {
    while (!open.empty() && open.begin()->first + size <= now) {
      const VirtualTime end = open.begin()->first + size;
      std::vector<size_t> kept = open.begin()->second;
      std::sort(kept.begin(), kept.end(), [&](size_t a, size_t b) {
        const double ra = feed.tuples[a].field("price").AsDouble();
        const double rb = feed.tuples[b].field("price").AsDouble();
        return ra != rb ? ra > rb : a > b;
      });
      kept.resize(std::min(kept.size(), static_cast<size_t>(k)));
      for (size_t i : kept) {
        const Tuple& t = feed.tuples[i];
        out.push_back(Exact(Tuple(t.schema(), t.values(), end)));
      }
      open.erase(open.begin());
    }
  };
  for (size_t i = 0; i <= feed.tuples.size(); ++i) {
    auto at = feed.advances.find(i);
    if (at != feed.advances.end()) advance(at->second);
    if (i == feed.tuples.size()) break;
    const VirtualTime ts = feed.tuples[i].timestamp();
    open[std::floor(ts / size) * size].push_back(i);
  }
  advance(kCloseAll);
  return out;
}

void ExpectTopKMatchesReference(const BatchFeed& feed, int k,
                                VirtualTime size) {
  const SchemaPtr s = QuoteSchema();
  ExpectEveryBatchingEmits(
      [&] { return std::make_unique<TopKOperator>(s, k, "price", size); },
      feed, ReferenceTopK(feed, k, size));
}

/// Quotes at `stamps` with prices that repeat, so ties occur.
BatchFeed QuotesAt(const std::vector<VirtualTime>& stamps) {
  const SchemaPtr s = QuoteSchema();
  BatchFeed feed;
  for (size_t i = 0; i < stamps.size(); ++i) {
    feed.tuples.push_back(Quote(s, "S" + std::to_string(i),
                                static_cast<double>((i * 7) % 5),
                                stamps[i]));
  }
  return feed;
}

TEST(TopKBatchTest, WindowRunsAcrossBatchings) {
  // Window ends inside a batch, out-of-order stamps, and a batch that
  // straddles the end of [0,10).
  const BatchFeed feed = QuotesAt(
      {0.0, 3.0, 9.5, 9.999, 10.0, 4.0, 12.0, 19.0, 11.0, 20.0, 35.0});
  ExpectTopKMatchesReference(feed, 2, 10.0);
  ExpectTopKMatchesReference(feed, 3, 3.0);
}

TEST(TopKBatchTest, TenthsWhereTheFloorRoundsDown) {
  std::vector<VirtualTime> stamps;
  for (int k = 0; k < 96; ++k) stamps.push_back(k * 0.1);
  const BatchFeed feed = QuotesAt(stamps);
  ExpectTopKMatchesReference(feed, 1, 0.1);
  ExpectTopKMatchesReference(feed, 2, 0.3);
}

TEST(TopKBatchTest, AdvanceBetweenBatchesDropsTheRun) {
  // 12 looks up [10,20); AdvanceTime(20) closes it, so the late 15 opens
  // a new [10,20) rather than adding to the closed one.
  BatchFeed feed = QuotesAt({12.0, 13.0, 15.0, 16.0, 21.0});
  feed.advances = {{2, 20.0}, {4, 20.5}};
  ExpectTopKMatchesReference(feed, 2, 10.0);
}

TEST(DistinctOperatorTest, SuppressesDuplicatesWithinWindow) {
  SchemaPtr s = QuoteSchema();
  DistinctOperator distinct(s, "symbol", /*window=*/10.0);
  std::vector<Tuple> out;
  distinct.Process(0, Quote(s, "IBM", 1.0, 0.0), &out);
  distinct.Process(0, Quote(s, "IBM", 2.0, 5.0), &out);   // Suppressed.
  distinct.Process(0, Quote(s, "AAPL", 3.0, 6.0), &out);  // New key.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].field("symbol").AsString(), "IBM");
  EXPECT_EQ(out[1].field("symbol").AsString(), "AAPL");
}

TEST(DistinctOperatorTest, KeyReappearsAfterWindow) {
  SchemaPtr s = QuoteSchema();
  DistinctOperator distinct(s, "symbol", 10.0);
  std::vector<Tuple> out;
  distinct.Process(0, Quote(s, "IBM", 1.0, 0.0), &out);
  distinct.Process(0, Quote(s, "IBM", 2.0, 10.0), &out);  // Window over.
  EXPECT_EQ(out.size(), 2u);
}

TEST(DistinctOperatorTest, AdvanceTimeEvictsKeys) {
  SchemaPtr s = QuoteSchema();
  DistinctOperator distinct(s, "symbol", 10.0);
  std::vector<Tuple> out;
  distinct.Process(0, Quote(s, "IBM", 1.0, 0.0), &out);
  EXPECT_EQ(distinct.TrackedKeys(), 1u);
  distinct.AdvanceTime(20.0, &out);
  EXPECT_EQ(distinct.TrackedKeys(), 0u);
}

TEST(TopKDistinctEngineTest, PlansInstallAndShare) {
  Engine engine(EngineOptions{100.0, 1.0, 64});
  ASSERT_TRUE(engine
                  .RegisterSource(MakeStockQuoteSource(
                      "quotes", {"IBM", "AAPL", "MSFT"}, 50.0, 9))
                  .ok());
  QueryBuilder b;
  int src = b.Source("quotes");
  int top = b.TopK(src, 3, "price", 10.0);
  const QueryPlan topk_plan = b.Build(top);

  src = b.Source("quotes");
  int ded = b.Distinct(src, "symbol", 10.0);
  const QueryPlan distinct_plan = b.Build(ded);

  ASSERT_TRUE(engine.InstallQuery(1, topk_plan).ok());
  ASSERT_TRUE(engine.InstallQuery(2, distinct_plan).ok());
  // Shared source + two distinct operators.
  EXPECT_EQ(engine.num_runtime_nodes(), 3);

  engine.Run(30.0);
  // Top-k: 3 per closed window (2 full windows at t=30... windows
  // [0,10) and [10,20) closed; [20,30) closes exactly at t=30).
  EXPECT_GE(engine.sink(1)->tuples, 6);
  EXPECT_LE(engine.sink(1)->tuples, 9);
  // Distinct: at most 3 symbols per 10s window over 30s.
  EXPECT_LE(engine.sink(2)->tuples, 12);
  EXPECT_GE(engine.sink(2)->tuples, 3);
}

TEST(TopKDistinctEngineTest, ValidationErrors) {
  Engine engine(EngineOptions{100.0, 1.0, 8});
  ASSERT_TRUE(engine
                  .RegisterSource(MakeStockQuoteSource(
                      "quotes", {"IBM"}, 10.0, 2))
                  .ok());
  QueryBuilder b;
  int src = b.Source("quotes");
  int top = b.TopK(src, 3, "no_such_field", 10.0);
  EXPECT_FALSE(engine.InstallQuery(1, b.Build(top)).ok());

  src = b.Source("quotes");
  int ded = b.Distinct(src, "nope", 10.0);
  EXPECT_FALSE(engine.InstallQuery(2, b.Build(ded)).ok());
}

TEST(TopKDistinctEngineTest, SignaturesDifferByParameters) {
  OpSpec a;
  a.kind = OpKind::kTopK;
  a.top_k = 3;
  a.field = "price";
  a.window = {10.0, 10.0};
  OpSpec b = a;
  b.top_k = 5;
  EXPECT_NE(a.Signature(), b.Signature());
  OpSpec d1;
  d1.kind = OpKind::kDistinct;
  d1.field = "symbol";
  d1.window = {60.0, 60.0};
  OpSpec d2 = d1;
  d2.window = {30.0, 30.0};
  EXPECT_NE(d1.Signature(), d2.Signature());
}

}  // namespace
}  // namespace streambid::stream
