// Copyright 2026 The streambid Authors
// Windowed top-k: at each tumbling-window close, emits the k tuples with
// the largest value of `rank_field` (ties broken by arrival order). The
// classic "top movers" query of stock monitoring dashboards.

#ifndef STREAMBID_STREAM_OPERATORS_TOPK_H_
#define STREAMBID_STREAM_OPERATORS_TOPK_H_

#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "stream/operator.h"
#include "stream/operators/aggregate.h"

namespace streambid::stream {

/// topk(k by field over tumbling window). Output schema = input schema
/// (the winning tuples are re-emitted, stamped with the window end).
class TopKOperator : public OperatorBase {
 public:
  TopKOperator(SchemaPtr input_schema, int k, const std::string& rank_field,
               VirtualTime window_size);

  using OperatorBase::Process;
  void Process(int port, std::span<const Tuple> batch,
               std::vector<Tuple>* out) override;

  void AdvanceTime(VirtualTime now, std::vector<Tuple>* out) override;

 private:
  struct OpenWindow {
    // Kept sorted ascending by rank value; holds at most k entries.
    std::vector<Tuple> best;
  };

  static constexpr double kNoRun = std::numeric_limits<double>::quiet_NaN();

  SchemaPtr schema_;
  int k_;
  int rank_index_;
  VirtualTime window_size_;
  std::map<VirtualTime, OpenWindow> open_;  // By window start.
  // The run: the window of the last tuple whose floor(ts / size) was
  // looked up, and that floor. A tuple with the same floor joins it
  // without a lookup. run_k_ is NaN when there is no run (no floor equals
  // it): before the first tuple, and once AdvanceTime closes a window.
  double run_k_ = kNoRun;
  OpenWindow* run_ = nullptr;
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATORS_TOPK_H_
