// Copyright 2026 The streambid Authors
// Windowed aggregation: tumbling or sliding time windows, optional
// group-by, with count/sum/avg/min/max. Emission is driven by
// AdvanceTime: a window [start, start+size) closes once virtual time
// passes its end, emitting one tuple per (window, group).
//
// A tuple's windows are resolved once per run of timestamps: the tuple
// that walks the windows (one map lookup per window) leaves them as the
// run, and each later tuple of the run, told by its floor(ts / slide)
// and timestamp, adds to those windows directly.

#ifndef STREAMBID_STREAM_OPERATORS_AGGREGATE_H_
#define STREAMBID_STREAM_OPERATORS_AGGREGATE_H_

#include <limits>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/operator.h"

namespace streambid::stream {

/// Aggregate functions.
enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

/// Stable name ("count", "sum", ...).
const char* AggFnName(AggFn fn);

/// Time-window specification. slide == size gives tumbling windows;
/// slide < size gives overlapping (sliding) windows.
struct WindowSpec {
  VirtualTime size = 60.0;
  VirtualTime slide = 60.0;
};

/// aggregate(FN(field) group-by g over window). Emits tuples of
/// `schema` (OpSpec::OutputSchema): [group (if grouped),
/// window_end:double, value:double].
class AggregateOperator : public OperatorBase {
 public:
  AggregateOperator(const SchemaPtr& input_schema, AggFn fn,
                    const std::string& agg_field,
                    const std::string& group_field, WindowSpec window,
                    SchemaPtr schema);

  using OperatorBase::Process;
  void Process(int port, std::span<const Tuple> batch,
               std::vector<Tuple>* out) override;

  void AdvanceTime(VirtualTime now, std::vector<Tuple>* out) override;

 private:
  struct Accumulator {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void Add(double x) {
      if (count == 0) {
        min = max = x;
      } else {
        if (x < min) min = x;
        if (x > max) max = x;
      }
      ++count;
      sum += x;
    }

    double Final(AggFn fn) const;
  };

  // One group of one open window: its accumulator and the group-by value
  // last seen in its key class (groups are keyed by Value under ToKey's
  // equivalence, so distinct doubles that print alike share one).
  struct Group {
    Accumulator acc;
    Value value;
  };

  // A window's groups by group-by value (Value() when ungrouped).
  using GroupMap =
      std::unordered_map<Value, Group, ValueKeyHash, ValueKeyEqual>;

  // One open window instance. Emission sorts its groups by ToKey(), so
  // they leave in key-string order ("i:10" before "i:2").
  struct OpenWindow {
    VirtualTime start = 0.0;
    GroupMap groups;
  };
  using WindowMap = std::map<VirtualTime, OpenWindow>;  // By start.

  // Adds `x` to the group of `key` in `w`.
  void Add(OpenWindow* w, const Value& key, double x);

  // Adds `x` under `key` to every window a tuple at `ts` belongs to,
  // opening the missing ones, and makes them the run; `k` is
  // floor(ts / slide).
  void Walk(VirtualTime ts, double k, const Value& key, double x);

  void EmitWindow(const OpenWindow& w, std::vector<Tuple>* out);

  SchemaPtr schema_;
  AggFn fn_;
  int agg_field_index_;    // -1 for count, which reads no field.
  int group_field_index_;  // -1 when ungrouped.
  WindowSpec window_;
  WindowMap open_;
  // The run: the windows the last walked tuple joined, open_'s entries
  // [run_first_, run_last_] (their starts are consecutive multiples of
  // the slide), with that tuple's k = floor(ts / slide) and timestamp.
  // A later tuple joins exactly these windows, as its own walk would
  // find, when its k is run_k_, its timestamp is at least run_ts_, and it
  // is below run_first_'s end. run_k_ is NaN when there is no run (no k
  // equals it): before the first tuple, and once AdvanceTime closes a
  // window.
  static constexpr double kNoRun = std::numeric_limits<double>::quiet_NaN();
  double run_k_ = kNoRun;
  VirtualTime run_ts_ = 0.0;
  WindowMap::iterator run_first_;
  WindowMap::iterator run_last_;
  // Closed windows' emptied group maps, which keep their buckets for the
  // next windows to open.
  std::vector<GroupMap> spare_groups_;
  // Emission scratch: the closing window's groups with their ToKey().
  std::vector<std::pair<std::string, const Group*>> order_;
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATORS_AGGREGATE_H_
