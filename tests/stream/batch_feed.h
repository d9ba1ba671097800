// Copyright 2026 The streambid Authors
// Test support for train-at-a-time operators: feed one sequence of tuples
// to fresh operators under every batching and compare what they emit, and
// the per-tuple window walk every aggregate must agree with.

#ifndef STREAMBID_TESTS_STREAM_BATCH_FEED_H_
#define STREAMBID_TESTS_STREAM_BATCH_FEED_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "stream/aggregate_family.h"
#include "stream/operator.h"

namespace streambid::stream {

/// Timestamp and values, doubles spelled exactly.
inline std::string Exact(const Tuple& t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", t.timestamp());
  std::string out = buf;
  for (const Value& v : t.values()) {
    if (v.type() == ValueType::kDouble) {
      std::snprintf(buf, sizeof(buf), " %a", v.AsDouble());
      out += buf;
    } else {
      out += ' ';
      out += v.ToKey();
    }
  }
  return out;
}

/// A time past the end of every window.
inline constexpr VirtualTime kCloseAll =
    std::numeric_limits<VirtualTime>::infinity();

/// Tuples to feed, with AdvanceTime(now) called before the tuple at each
/// index in `advances` (an index of tuples.size() advances at the end).
struct BatchFeed {
  std::vector<Tuple> tuples;
  std::map<size_t, VirtualTime> advances;
};

/// Feeds `feed` to `op` in batches that end at every index in `cuts` and
/// at every advance, then advances far past every window; returns what
/// it emitted, spelled exactly.
inline std::vector<std::string> RunBatched(OperatorBase& op,
                                           const BatchFeed& feed,
                                           std::vector<size_t> cuts) {
  for (const auto& [at, now] : feed.advances) cuts.push_back(at);
  cuts.push_back(feed.tuples.size());
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<Tuple> out;
  const std::span<const Tuple> all(feed.tuples);
  size_t begin = 0;
  for (size_t cut : cuts) {
    if (cut > begin) op.Process(0, all.subspan(begin, cut - begin), &out);
    begin = std::max(begin, cut);
    auto advance = feed.advances.find(cut);
    if (advance != feed.advances.end()) op.AdvanceTime(advance->second, &out);
  }
  op.AdvanceTime(kCloseAll, &out);
  std::vector<std::string> spelled;
  for (const Tuple& t : out) spelled.push_back(Exact(t));
  return spelled;
}

/// Runs a fresh operator from `make` over `feed` as one batch per
/// advance, as one-tuple batches, and split at every index; each must
/// emit `expected`.
template <typename Make>
void ExpectEveryBatchingEmits(const Make& make, const BatchFeed& feed,
                              const std::vector<std::string>& expected) {
  ASSERT_FALSE(expected.empty());
  {
    auto op = make();
    EXPECT_EQ(RunBatched(*op, feed, {}), expected) << "one batch";
  }
  std::vector<size_t> every;
  for (size_t i = 1; i < feed.tuples.size(); ++i) every.push_back(i);
  {
    auto op = make();
    EXPECT_EQ(RunBatched(*op, feed, every), expected)
        << "one-tuple batches";
  }
  for (size_t i = 1; i < feed.tuples.size(); ++i) {
    auto op = make();
    EXPECT_EQ(RunBatched(*op, feed, {i}), expected) << "split at " << i;
  }
}

/// What an aggregate computing `fn` over field `agg_field` (-1 for count),
/// grouped by field `group_field` (-1 when ungrouped), over `window`
/// emits for `feed`, as tuples of `schema`, spelled exactly. Every tuple
/// walks its windows from floor(ts / slide) down, with no run, until a
/// window ends by ts, the start 0, or a j that j - 1.0 cannot step down
/// from; before the tuple at each index in `feed.advances`, the windows
/// that end by then close in start order, each emitting its groups in
/// ToKey() order with the group-by value last added. Windows still open
/// after the last advance emit nothing.
inline std::vector<std::string> ReferenceAggregate(const BatchFeed& feed,
                                                   AggFn fn, int agg_field,
                                                   int group_field,
                                                   WindowSpec window,
                                                   const SchemaPtr& schema) {
  struct Group {
    Value value;
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::map<VirtualTime, std::map<std::string, Group>> open;
  std::vector<std::string> out;
  auto advance = [&](VirtualTime now) {
    while (!open.empty() && open.begin()->first + window.size <= now) {
      const VirtualTime end = open.begin()->first + window.size;
      for (const auto& [key, g] : open.begin()->second) {
        double result = 0.0;
        switch (fn) {
          case AggFn::kCount:
            result = static_cast<double>(g.count);
            break;
          case AggFn::kSum:
            result = g.sum;
            break;
          case AggFn::kAvg:
            result = g.sum / static_cast<double>(g.count);
            break;
          case AggFn::kMin:
            result = g.min;
            break;
          case AggFn::kMax:
            result = g.max;
            break;
        }
        std::vector<Value> values;
        if (group_field >= 0) values.push_back(g.value);
        values.push_back(Value(end));
        values.push_back(Value(result));
        out.push_back(Exact(Tuple(schema, values, end)));
      }
      open.erase(open.begin());
    }
  };
  for (size_t i = 0; i <= feed.tuples.size(); ++i) {
    auto at = feed.advances.find(i);
    if (at != feed.advances.end()) advance(at->second);
    if (i == feed.tuples.size()) break;
    const Tuple& t = feed.tuples[i];
    const double x = agg_field >= 0 ? t.value(agg_field).AsDouble() : 1.0;
    const Value group = group_field >= 0 ? t.value(group_field) : Value();
    const VirtualTime ts = t.timestamp();
    for (double j = std::floor(ts / window.slide);; j -= 1.0) {
      const VirtualTime s = j * window.slide;
      if (s < 0.0 && j < 0.0) break;
      if (s + window.size <= ts) break;
      Group& g = open[s][group.ToKey()];
      g.value = group;
      g.min = g.count == 0 ? x : std::min(g.min, x);
      g.max = g.count == 0 ? x : std::max(g.max, x);
      ++g.count;
      g.sum += x;
      if (j == 0.0 || j - 1.0 == j) break;
    }
  }
  return out;
}

}  // namespace streambid::stream

#endif  // STREAMBID_TESTS_STREAM_BATCH_FEED_H_
