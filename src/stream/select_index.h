// Copyright 2026 The streambid Authors
// A grouped-select index: the selects that compare one numeric field of
// one producer's tuples with numeric constants, evaluated together, as in
// the grouped filters of NiagaraCQ (Chen et al., SIGMOD 2000) and CACQ
// (Madden et al., SIGMOD 2002). Sharing already runs each distinct select
// once, but selects that differ only in their thresholds would still each
// read every tuple. Here each comparison op keeps its members' thresholds
// sorted, so a tuple costs one field read and a binary search or two per
// op in use, plus one append per member it passes.

#ifndef STREAMBID_STREAM_SELECT_INDEX_H_
#define STREAMBID_STREAM_SELECT_INDEX_H_

#include <vector>

#include "stream/operators/select.h"
#include "stream/tuple.h"

namespace streambid::stream {

/// The members `field OP threshold` over field `field` of the tuples one
/// producer emits. A member is named by its output batch, which the index
/// does not own. An int64 field value compares as its AsDouble(), the
/// promotion Value's comparisons use, so each member passes exactly the
/// tuples EvalCompare(value, op, threshold) passes, NaN and -0.0 included.
class SelectIndex {
 public:
  explicit SelectIndex(int field) : field_(field) {}

  /// The index of the field the members read.
  int field() const { return field_; }

  /// Adds the member `field OP threshold` whose output batch is `batch`
  /// (an int64 operand is passed as its AsDouble()). Members may share a
  /// threshold; each batch is its own.
  void Add(CompareOp op, double threshold, std::vector<Tuple>* batch);

  /// Removes the member whose output batch is `batch` (checked present).
  void Remove(const std::vector<Tuple>* batch);

  /// True when the index has no member.
  bool empty() const { return groups_.empty(); }

  /// Appends each tuple of `batch`, in batch order, to the output batch of
  /// every member it passes. Sorts the thresholds first when members came
  /// or went since the last Route, so adding a member is an append and
  /// removing one moves only the last member into its place.
  void Route(const std::vector<Tuple>& batch);

 private:
  struct Member {
    double threshold;
    std::vector<Tuple>* batch;
  };
  // The members under one op. A NaN threshold cannot be ordered, so those
  // members sit apart: EvalCompare passes every value against NaN under
  // >, >= and != and none under the other ops.
  struct Group {
    CompareOp op;
    std::vector<Member> members;  // No NaN; by threshold when `sorted`.
    std::vector<std::vector<Tuple>*> nan_batches;  // NaN thresholds.
    bool sorted = true;
  };

  int field_;
  std::vector<Group> groups_;  // One per op with a member.
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_SELECT_INDEX_H_
