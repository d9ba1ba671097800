// Copyright 2026 The streambid Authors
// Test support for train-at-a-time operators: feed one sequence of tuples
// to fresh operators under every batching and compare what they emit.

#ifndef STREAMBID_TESTS_STREAM_BATCH_FEED_H_
#define STREAMBID_TESTS_STREAM_BATCH_FEED_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

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
      out += " " + v.ToKey();
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

}  // namespace streambid::stream

#endif  // STREAMBID_TESTS_STREAM_BATCH_FEED_H_
