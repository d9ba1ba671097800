// Copyright 2026 The streambid Authors

#include "stream/operators/aggregate.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.h"

namespace streambid::stream {

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
      return "count";
    case AggFn::kSum:
      return "sum";
    case AggFn::kAvg:
      return "avg";
    case AggFn::kMin:
      return "min";
    case AggFn::kMax:
      return "max";
  }
  return "?";
}

double AggregateOperator::Accumulator::Final(AggFn fn) const {
  switch (fn) {
    case AggFn::kCount:
      return static_cast<double>(count);
    case AggFn::kSum:
      return sum;
    case AggFn::kAvg:
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    case AggFn::kMin:
      return min;
    case AggFn::kMax:
      return max;
  }
  return 0.0;
}

AggregateOperator::AggregateOperator(const SchemaPtr& input_schema,
                                     AggFn fn, const std::string& agg_field,
                                     const std::string& group_field,
                                     WindowSpec window, SchemaPtr schema)
    : schema_(std::move(schema)),
      fn_(fn),
      agg_field_index_(fn == AggFn::kCount
                           ? -1
                           : input_schema->FieldIndex(agg_field)),
      group_field_index_(group_field.empty()
                             ? -1
                             : input_schema->FieldIndex(group_field)),
      window_(window) {
  STREAMBID_CHECK(fn == AggFn::kCount || agg_field_index_ >= 0);
  STREAMBID_CHECK(group_field.empty() || group_field_index_ >= 0);
  STREAMBID_CHECK_GT(window.size, 0.0);
  STREAMBID_CHECK_GT(window.slide, 0.0);
  STREAMBID_CHECK_LE(window.slide, window.size);
}

void AggregateOperator::Process(int port, std::span<const Tuple> batch,
                                std::vector<Tuple>* out) {
  STREAMBID_DCHECK(port == 0);
  (void)port;
  (void)out;  // Emission happens on AdvanceTime.
  const Value ungrouped;
  for (const Tuple& tuple : batch) {
    const double x =
        agg_field_index_ >= 0 ? tuple.value(agg_field_index_).AsDouble()
                              : 1.0;
    const Value& key = group_field_index_ >= 0
                           ? tuple.value(group_field_index_)
                           : ungrouped;
    const VirtualTime ts = tuple.timestamp();
    const double k = std::floor(ts / window_.slide);
    if (k == run_k_ && ts >= run_ts_ &&
        ts < run_first_->first + window_.size) {
      for (auto it = run_first_;; ++it) {
        Add(&it->second, key, x);
        if (it == run_last_) break;
      }
    } else {
      Walk(ts, k, key, x);
    }
  }
}

void AggregateOperator::Add(OpenWindow* w, const Value& key, double x) {
  auto [entry, inserted] = w->groups.try_emplace(key);
  Group& group = entry->second;
  group.acc.Add(x);
  // An int64 or string key class holds one value; a double's class
  // holds every double that prints alike, and the group shows the last.
  if (group_field_index_ >= 0 &&
      (inserted || key.type() == ValueType::kDouble)) {
    group.value = key;
  }
}

void AggregateOperator::Walk(VirtualTime ts, double k, const Value& key,
                             double x) {
  // Windows are aligned at multiples of slide. A tuple at ts belongs to
  // every window [s, s+size) with s <= ts < s+size and s = k*slide,
  // walked from the newest down.
  size_t joined = 0;
  bool distinct = true;  // False when two k round to one start.
  for (double j = k;; j -= 1.0) {
    const VirtualTime s = j * window_.slide;
    if (s < 0.0 && j < 0.0) break;
    if (s + window_.size <= ts) break;
    auto [it, opened] = open_.try_emplace(s);
    OpenWindow& w = it->second;
    if (opened) {
      w.start = s;
      if (!spare_groups_.empty()) {
        w.groups = std::move(spare_groups_.back());
        spare_groups_.pop_back();
      }
    }
    Add(&w, key, x);
    if (joined++ == 0) {
      run_last_ = it;
    } else if (it == run_first_) {
      distinct = false;
    }
    run_first_ = it;
    if (j == 0.0) break;
  }
  // A run adds once per window, so a walk that joined one window twice
  // leaves none.
  run_k_ = joined > 0 && distinct ? k : kNoRun;
  run_ts_ = ts;
}

void AggregateOperator::EmitWindow(const OpenWindow& w,
                                   std::vector<Tuple>* out) {
  const VirtualTime end = w.start + window_.size;
  order_.clear();
  for (const auto& [key, group] : w.groups) {  // NOLINT(determinism): only collects; sorted by ToKey below before any emission.
    order_.emplace_back(key.ToKey(), &group);
  }
  std::sort(order_.begin(), order_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, group] : order_) {
    Value values[3];  // [group (if grouped), window_end, value].
    size_t n = 0;
    if (group_field_index_ >= 0) values[n++] = group->value;
    values[n++] = Value(end);
    values[n++] = Value(group->acc.Final(fn_));
    out->emplace_back(schema_, std::span<const Value>(values, n), end);
  }
}

void AggregateOperator::AdvanceTime(VirtualTime now,
                                    std::vector<Tuple>* out) {
  auto it = open_.begin();
  while (it != open_.end() && it->first + window_.size <= now) {
    EmitWindow(it->second, out);
    it->second.groups.clear();
    spare_groups_.push_back(std::move(it->second.groups));
    it = open_.erase(it);
    run_k_ = kNoRun;
  }
}

}  // namespace streambid::stream
