// Copyright 2026 The streambid Authors

#include "stream/operators/topk.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace streambid::stream {

TopKOperator::TopKOperator(SchemaPtr input_schema, int k,
                           const std::string& rank_field,
                           VirtualTime window_size)
    : schema_(std::move(input_schema)),
      k_(k),
      rank_index_(schema_->FieldIndex(rank_field)),
      window_size_(window_size) {
  STREAMBID_CHECK_GT(k, 0);
  STREAMBID_CHECK_GE(rank_index_, 0);
  STREAMBID_CHECK_GT(window_size, 0.0);
}

VirtualTime TopKOperator::WindowStart(VirtualTime ts) const {
  return std::floor(ts / window_size_) * window_size_;
}

void TopKOperator::Process(int port, const Tuple& tuple,
                           std::vector<Tuple>* out) {
  STREAMBID_DCHECK(port == 0);
  (void)port;
  (void)out;  // Emission happens on window close.
  OpenWindow& w = open_[WindowStart(tuple.timestamp())];
  const double rank = tuple.value(rank_index_).AsDouble();
  // Insert in ascending-rank position, after every equal-ranked older
  // tuple, so of two equal ranks the newer one is kept longer.
  auto pos = std::upper_bound(
      w.best.begin(), w.best.end(), rank,
      [this](double r, const Tuple& t) {
        return r < t.value(rank_index_).AsDouble();
      });
  // Below the smallest of a full window: it would be dropped at once. A
  // rank equal to the smallest lands after it and displaces it.
  if (pos == w.best.begin() && static_cast<int>(w.best.size()) == k_) {
    return;
  }
  w.best.insert(pos, tuple);
  if (static_cast<int>(w.best.size()) > k_) {
    w.best.erase(w.best.begin());  // Drop the smallest.
  }
}

void TopKOperator::AdvanceTime(VirtualTime now, std::vector<Tuple>* out) {
  auto it = open_.begin();
  while (it != open_.end() && it->first + window_size_ <= now) {
    const VirtualTime end = it->first + window_size_;
    // Emit in descending rank order.
    for (auto t = it->second.best.rbegin(); t != it->second.best.rend();
         ++t) {
      out->emplace_back(schema_, t->values(), end);
    }
    it = open_.erase(it);
  }
}

}  // namespace streambid::stream
