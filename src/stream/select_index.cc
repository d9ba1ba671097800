// Copyright 2026 The streambid Authors

#include "stream/select_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace streambid::stream {

namespace {

// True when EvalCompare(a, op, b) holds whenever a or b is NaN: !(a < b)
// and !(a == b) are both true then.
bool NaNPasses(CompareOp op) {
  return op == CompareOp::kGt || op == CompareOp::kGe ||
         op == CompareOp::kNe;
}

}  // namespace

void SelectIndex::Add(CompareOp op, double threshold,
                      std::vector<Tuple>* batch) {
  auto group = std::find_if(groups_.begin(), groups_.end(),
                            [op](const Group& g) { return g.op == op; });
  if (group == groups_.end()) {
    group = groups_.insert(groups_.end(), Group{op, {}, {}, true});
  }
  if (std::isnan(threshold)) {
    group->nan_batches.push_back(batch);
  } else {
    group->members.push_back(Member{threshold, batch});
    group->sorted = false;
  }
}

void SelectIndex::Remove(const std::vector<Tuple>* batch) {
  // Members keep no order between Routes, so the last one fills the gap.
  for (auto group = groups_.begin(); group != groups_.end(); ++group) {
    auto member = std::find_if(
        group->members.begin(), group->members.end(),
        [batch](const Member& m) { return m.batch == batch; });
    if (member != group->members.end()) {
      *member = group->members.back();
      group->members.pop_back();
      group->sorted = false;
    } else {
      auto nan = std::find(group->nan_batches.begin(),
                           group->nan_batches.end(), batch);
      if (nan == group->nan_batches.end()) continue;
      *nan = group->nan_batches.back();
      group->nan_batches.pop_back();
    }
    if (group->members.empty() && group->nan_batches.empty()) {
      groups_.erase(group);
    }
    return;
  }
  STREAMBID_CHECK(false);  // Not a member.
}

void SelectIndex::Route(const std::vector<Tuple>& batch) {
  for (Group& g : groups_) {
    if (g.sorted) continue;
    std::sort(g.members.begin(), g.members.end(),
              [](const Member& a, const Member& b) {
                return a.threshold < b.threshold;
              });
    g.sorted = true;
  }
  for (const Tuple& tuple : batch) {
    const double v = tuple.value(field_).AsDouble();
    for (const Group& g : groups_) {
      const Member* const first = g.members.data();
      const Member* const last = first + g.members.size();
      // The members whose threshold is below v, and at most v.
      auto below = [&] {
        return std::lower_bound(first, last, v,
                                [](const Member& m, double x) {
                                  return m.threshold < x;
                                });
      };
      auto at_most = [&] {
        return std::upper_bound(first, last, v,
                                [](double x, const Member& m) {
                                  return x < m.threshold;
                                });
      };
      // The members v passes: [lo, hi), or its complement.
      const Member* lo = first;
      const Member* hi = last;
      bool complement = false;
      if (std::isnan(v)) {
        if (!NaNPasses(g.op)) hi = first;
      } else {
        switch (g.op) {
          case CompareOp::kGt:  // threshold < v.
            hi = below();
            break;
          case CompareOp::kGe:  // threshold <= v.
            hi = at_most();
            break;
          case CompareOp::kLt:  // v < threshold.
            lo = at_most();
            break;
          case CompareOp::kLe:  // v <= threshold.
            lo = below();
            break;
          case CompareOp::kEq:
            lo = below();
            hi = at_most();
            break;
          case CompareOp::kNe:
            lo = below();
            hi = at_most();
            complement = true;
            break;
        }
      }
      if (complement) {
        for (const Member* m = first; m != lo; ++m) m->batch->push_back(tuple);
        for (const Member* m = hi; m != last; ++m) m->batch->push_back(tuple);
      } else {
        for (const Member* m = lo; m != hi; ++m) m->batch->push_back(tuple);
      }
      if (NaNPasses(g.op)) {
        for (std::vector<Tuple>* nan : g.nan_batches) nan->push_back(tuple);
      }
    }
  }
}

}  // namespace streambid::stream
