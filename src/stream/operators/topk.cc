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

void TopKOperator::Process(int port, std::span<const Tuple> batch,
                           std::vector<Tuple>* out) {
  STREAMBID_DCHECK(port == 0);
  (void)port;
  (void)out;  // Emission happens on window close.
  for (const Tuple& tuple : batch) {
    const double k = std::floor(tuple.timestamp() / window_size_);
    if (k != run_k_) {
      run_ = &open_[k * window_size_];
      run_k_ = k;
    }
    std::vector<Tuple>& best = run_->best;
    const double rank = tuple.value(rank_index_).AsDouble();
    // Insert in ascending-rank position, after every equal-ranked older
    // tuple, so of two equal ranks the newer one is kept longer.
    auto pos = std::upper_bound(
        best.begin(), best.end(), rank, [this](double r, const Tuple& t) {
          return r < t.value(rank_index_).AsDouble();
        });
    // Below the smallest of a full window: it would be dropped at once. A
    // rank equal to the smallest lands after it and displaces it.
    if (pos == best.begin() && static_cast<int>(best.size()) == k_) {
      continue;
    }
    best.insert(pos, tuple);
    if (static_cast<int>(best.size()) > k_) {
      best.erase(best.begin());  // Drop the smallest.
    }
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
    run_k_ = kNoRun;
  }
}

}  // namespace streambid::stream
