// Copyright 2026 The streambid Authors
// An aggregate family: windowed aggregates that read one producer's
// tuples and agree on what they walk (the aggregated field, none for
// count; the group-by field; the window size and slide), evaluated
// together, after the shared aggregation of Krishnamurthy, Wu and
// Franklin (On-the-fly sharing for streamed aggregation, SIGMOD 2006)
// but without their fragment merging. Sharing already runs each distinct
// aggregate once, but aggregates that differ only in the select in front
// of them would still each walk the windows of, and look up the group
// of, every tuple they read. Here a tuple that reaches at least one
// member walks its windows once and looks its group up once per window;
// then each member it reaches adds it to that member's own accumulator,
// in batch order. So each member's count, sum, min and max see exactly
// its own tuples, in its own order, and a member emits exactly what an
// aggregate over its input alone would.
//
// A tuple's windows are resolved once per run of timestamps: the tuple
// that walks the windows leaves them as the run, and each later tuple of
// the run, told by its floor(ts / slide) and timestamp, adds to those
// windows directly.
//
// The engine keeps a family per producer and key for the aggregates over
// that producer's indexed selects (stream/engine.h); AggregateOperator
// (stream/operators/aggregate.h) is a one-member family over its own
// input.

#ifndef STREAMBID_STREAM_AGGREGATE_FAMILY_H_
#define STREAMBID_STREAM_AGGREGATE_FAMILY_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "stream/tuple.h"

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

/// The members of one family. A window [start, start+size) closes once
/// virtual time reaches its end; each member then emits one tuple per
/// group it saw there: [group (if grouped), window_end:double,
/// value:double], windows in start order, groups in Value::ToKey() order.
/// Groups are keyed by Value under ToKey's equivalence, so distinct
/// doubles that print alike share one, and a member shows the group-by
/// value it last added there.
class AggregateFamily {
 public:
  /// What the members share. Fields are indexes into the input schema:
  /// `agg_field` is -1 for count, which reads no field, and `group_field`
  /// is -1 when ungrouped.
  struct Key {
    int agg_field = -1;
    int group_field = -1;
    WindowSpec window;

    /// The key of an aggregate computing `fn` over `agg_field`, grouped
    /// by `group_field` (empty when ungrouped), that reads tuples of
    /// `input`. Precondition (checked): the fields it reads are in
    /// `input`.
    static Key Of(const Schema& input, AggFn fn, const std::string& agg_field,
                  const std::string& group_field, WindowSpec window);

    bool operator<(const Key& other) const;
  };

  /// One member: an aggregate function and where its tuples come from.
  /// Owned by the family; the handle stays valid until Remove.
  struct Member;

  /// Precondition (checked): 0 < slide <= size.
  explicit AggregateFamily(const Key& key);
  ~AggregateFamily();

  AggregateFamily(const AggregateFamily&) = delete;
  AggregateFamily& operator=(const AggregateFamily&) = delete;

  const Key& key() const { return key_; }

  /// Adds a member that computes `fn` and emits tuples of `schema`. Each
  /// Accumulate, `in` holds the tuples the member reads: the tuples of
  /// Accumulate's batch that passed the member's select, in batch order
  /// (a subsequence of the batch, a tuple that appears twice in the batch
  /// passing twice). A null `in` reads every tuple of the batch. Costs
  /// one block of cells per open window; a block holds at most 8 cells or
  /// twice the most groups one window has held, whichever is more.
  Member* Add(AggFn fn, SchemaPtr schema, const std::vector<Tuple>* in);

  /// Removes `member` (checked to belong to the family). Costs one block
  /// of cells per open window.
  void Remove(Member* member);

  /// True when the family has no member.
  bool empty() const { return members_.empty(); }

  /// Reads `batch` once: each tuple that reaches a member (is the next
  /// unread tuple of its `in`) walks its windows, opening the missing
  /// ones, and is added to the group of each of them for every member
  /// it reaches.
  void Accumulate(std::span<const Tuple> batch);

  /// Appends to `out` what `member` emits for the windows that end by
  /// `now`. The first member to call it with windows to close closes
  /// them for all; they are recycled once every member has emitted them,
  /// so between two Accumulates every member calls it once with the same
  /// `now`, and members come and go only when no closed window waits.
  void Emit(Member* member, VirtualTime now, std::vector<Tuple>* out);

 private:
  // One member's accumulator for one group of one window. The member saw
  // the group there exactly when count > 0.
  struct Cell {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    Value value;  // The group-by value last added.

    void Add(double x, const Value& group);
    double Final(AggFn fn) const;
  };

  // One open window: its groups by slot, found through an open-address
  // table, and every member's cells. The family's stride is at least the
  // window's slot count, and member `pos` keeps its cell for slot `s` at
  // cells[pos * stride + s], so a member joins or leaves by one block of
  // cells per window.
  struct Window {
    struct Group {
      Value key;    // The first value of the key class seen here.
      size_t hash;  // key.KeyHash().
    };
    std::vector<Group> groups;
    std::vector<uint32_t> table;  // Slot + 1, 0 when empty; a power of 2.
    std::vector<Cell> cells;
    // Set when the window closes: its slots in ToKey() order.
    std::vector<std::pair<std::string, uint32_t>> order;

    // The slot of `group`, whose KeyHash() is `hash`, added when new.
    uint32_t Slot(const Value& group, size_t hash);
  };
  using WindowMap = std::map<VirtualTime, Window>;  // By start.

  // The window that starts at `s`, opened when missing.
  WindowMap::iterator Open(VirtualTime s);

  // Adds `x` under `group` to `w` for every reached member.
  void Add(Window* w, const Value& group, size_t hash, double x);

  // Lays every open window's cells out again at `stride`.
  void Restride(size_t stride);

  // Adds `x` under `group` to every window a tuple at `ts` belongs to,
  // opening the missing ones, and makes them the run; `k` is
  // floor(ts / slide).
  void Walk(VirtualTime ts, double k, const Value& group, size_t hash,
            double x);

  // Moves the windows that end by `now` to closing_, sorting each one's
  // slots.
  void Close(VirtualTime now);

  void EmitWindow(const Member& member, VirtualTime start, const Window& w,
                  std::vector<Tuple>* out) const;

  Key key_;
  std::vector<std::unique_ptr<Member>> members_;  // By position.
  size_t stride_ = 8;  // Cells per member per window; doubles as needed.
  WindowMap open_;
  // Closed windows waiting for `pending_` more members to emit them, in
  // start order, then recycled into spare_ with their buffers kept.
  std::vector<WindowMap::node_type> closing_;
  size_t pending_ = 0;
  std::vector<WindowMap::node_type> spare_;
  // Accumulate's scratch: each member's unread input (`in`, or the batch
  // for a null `in`) with its position, and the positions of the members
  // the current tuple reaches.
  struct Cursor {
    const Tuple* next;
    const Tuple* end;
    size_t pos;
  };
  std::vector<Cursor> cursors_;
  std::vector<size_t> reached_;
  // The run: the windows the last walked tuple joined, open_'s entries
  // [run_first_, run_last_] (their starts are consecutive multiples of
  // the slide), with that tuple's k = floor(ts / slide) and timestamp.
  // A later tuple joins exactly these windows, as its own walk would
  // find, when its k is run_k_, its timestamp is at least run_ts_, and it
  // is below run_first_'s end. run_k_ is NaN when there is no run (no k
  // equals it): before the first tuple, and once a window closes.
  static constexpr double kNoRun = std::numeric_limits<double>::quiet_NaN();
  double run_k_ = kNoRun;
  VirtualTime run_ts_ = 0.0;
  WindowMap::iterator run_first_;
  WindowMap::iterator run_last_;
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_AGGREGATE_FAMILY_H_
