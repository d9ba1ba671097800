// Copyright 2026 The streambid Authors

#include "stream/aggregate_family.h"

#include <algorithm>
#include <cmath>
#include <tuple>

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

struct AggregateFamily::Member {
  AggFn fn;
  SchemaPtr schema;
  const std::vector<Tuple>* in;  // Null: every tuple of the batch.
  size_t pos;  // In members_, and its block in every window's cells.
};

AggregateFamily::Key AggregateFamily::Key::Of(const Schema& input, AggFn fn,
                                              const std::string& agg_field,
                                              const std::string& group_field,
                                              WindowSpec window) {
  Key key;
  key.agg_field = fn == AggFn::kCount ? -1 : input.FieldIndex(agg_field);
  key.group_field = group_field.empty() ? -1 : input.FieldIndex(group_field);
  key.window = window;
  STREAMBID_CHECK(fn == AggFn::kCount || key.agg_field >= 0);
  STREAMBID_CHECK(group_field.empty() || key.group_field >= 0);
  return key;
}

bool AggregateFamily::Key::operator<(const Key& other) const {
  return std::tie(agg_field, group_field, window.size, window.slide) <
         std::tie(other.agg_field, other.group_field, other.window.size,
                  other.window.slide);
}

void AggregateFamily::Cell::Add(double x, const Value& group) {
  if (count == 0) {
    min = max = x;
  } else {
    if (x < min) min = x;
    if (x > max) max = x;
  }
  ++count;
  sum += x;
  // An int64 or string key class holds one value; a double's holds every
  // double that prints alike, and the member shows the last it added.
  value = group;
}

double AggregateFamily::Cell::Final(AggFn fn) const {
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

uint32_t AggregateFamily::Window::Slot(const Value& group, size_t hash) {
  if (table.empty()) table.assign(8, 0);
  size_t mask = table.size() - 1;
  size_t i = hash & mask;
  for (; table[i] != 0; i = (i + 1) & mask) {
    const Group& g = groups[table[i] - 1];
    if (g.hash == hash && g.key.SameKey(group)) return table[i] - 1;
  }
  const auto slot = static_cast<uint32_t>(groups.size());
  groups.push_back(Group{group, hash});
  if (2 * groups.size() <= table.size()) {
    table[i] = slot + 1;
    return slot;
  }
  // Keep the table at most half full: double it and place every group.
  table.assign(2 * table.size(), 0);
  mask = table.size() - 1;
  for (uint32_t s = 0; s < groups.size(); ++s) {
    size_t j = groups[s].hash & mask;
    while (table[j] != 0) j = (j + 1) & mask;
    table[j] = s + 1;
  }
  return slot;
}

AggregateFamily::AggregateFamily(const Key& key) : key_(key) {
  STREAMBID_CHECK_GT(key.window.slide, 0.0);
  STREAMBID_CHECK_LE(key.window.slide, key.window.size);
}

AggregateFamily::~AggregateFamily() = default;

AggregateFamily::Member* AggregateFamily::Add(AggFn fn, SchemaPtr schema,
                                              const std::vector<Tuple>* in) {
  STREAMBID_CHECK_EQ(pending_, 0u);
  members_.push_back(std::make_unique<Member>(
      Member{fn, std::move(schema), in, members_.size()}));
  for (auto& [start, w] : open_) w.cells.resize(w.cells.size() + stride_);
  return members_.back().get();
}

void AggregateFamily::Remove(Member* member) {
  STREAMBID_CHECK_EQ(pending_, 0u);
  const size_t pos = member->pos;
  STREAMBID_CHECK(pos < members_.size() && members_[pos].get() == member);
  // The last member takes the leaver's position, in every window too.
  const size_t last = members_.size() - 1;
  for (auto& [start, w] : open_) {
    std::copy_n(w.cells.begin() + static_cast<std::ptrdiff_t>(last * stride_),
                stride_,
                w.cells.begin() + static_cast<std::ptrdiff_t>(pos * stride_));
    w.cells.resize(last * stride_);
  }
  std::swap(members_[pos], members_.back());
  members_[pos]->pos = pos;
  members_.pop_back();
}

void AggregateFamily::Accumulate(std::span<const Tuple> batch) {
  STREAMBID_CHECK_EQ(pending_, 0u);  // Every member emitted the last close.
  cursors_.clear();
  for (const auto& m : members_) {
    const Tuple* first = m->in != nullptr ? m->in->data() : batch.data();
    const size_t n = m->in != nullptr ? m->in->size() : batch.size();
    if (n > 0) cursors_.push_back(Cursor{first, first + n, m->pos});
  }
  const Value ungrouped;
  for (const Tuple& tuple : batch) {
    reached_.clear();
    for (Cursor& c : cursors_) {
      if (c.next != c.end && c.next->SameBlock(tuple)) {
        ++c.next;
        reached_.push_back(c.pos);
      }
    }
    if (reached_.empty()) continue;
    const double x =
        key_.agg_field >= 0 ? tuple.value(key_.agg_field).AsDouble() : 1.0;
    const Value& group =
        key_.group_field >= 0 ? tuple.value(key_.group_field) : ungrouped;
    const size_t hash = group.KeyHash();
    const VirtualTime ts = tuple.timestamp();
    const double k = std::floor(ts / key_.window.slide);
    if (k == run_k_ && ts >= run_ts_ &&
        ts < run_first_->first + key_.window.size) {
      for (auto it = run_first_;; ++it) {
        Add(&it->second, group, hash, x);
        if (it == run_last_) break;
      }
    } else {
      Walk(ts, k, group, hash, x);
    }
  }
  // Each member read all of its input: it was a subsequence of the batch.
  for (const Cursor& c : cursors_) STREAMBID_CHECK(c.next == c.end);
}

AggregateFamily::WindowMap::iterator AggregateFamily::Open(VirtualTime s) {
  auto it = open_.lower_bound(s);
  if (it != open_.end() && !(s < it->first)) return it;
  if (spare_.empty()) {
    it = open_.emplace_hint(it, s, Window{});
  } else {
    WindowMap::node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = s;
    it = open_.insert(it, std::move(node));
  }
  it->second.cells.assign(members_.size() * stride_, Cell{});
  return it;
}

void AggregateFamily::Add(Window* w, const Value& group, size_t hash,
                          double x) {
  const uint32_t slot = w->Slot(group, hash);
  if (slot >= stride_) Restride(2 * stride_);
  Cell* const column = w->cells.data() + slot;
  for (size_t pos : reached_) column[pos * stride_].Add(x, group);
}

void AggregateFamily::Restride(size_t stride) {
  for (auto& [start, w] : open_) {
    std::vector<Cell> cells(members_.size() * stride);
    for (size_t pos = 0; pos < members_.size(); ++pos) {
      std::copy_n(w.cells.begin() + static_cast<std::ptrdiff_t>(pos * stride_),
                  stride_,
                  cells.begin() + static_cast<std::ptrdiff_t>(pos * stride));
    }
    w.cells = std::move(cells);
  }
  stride_ = stride;
}

void AggregateFamily::Walk(VirtualTime ts, double k, const Value& group,
                           size_t hash, double x) {
  // Windows are aligned at multiples of slide. A tuple at ts belongs to
  // every window [s, s+size) with s <= ts < s+size and s = j*slide,
  // walked from j = k down (a NaN ts belongs to none).
  size_t joined = 0;
  bool distinct = true;  // False when two j round to one start.
  for (double j = k;; j -= 1.0) {
    const VirtualTime s = j * key_.window.slide;
    if (s < 0.0 && j < 0.0) break;
    if (!(ts < s + key_.window.size)) break;
    const auto it = Open(s);
    Add(&it->second, group, hash, x);
    if (joined++ == 0) {
      run_last_ = it;
    } else if (it == run_first_) {
      distinct = false;
    }
    run_first_ = it;
    // Past 2^53, j - 1.0 can round back to j: no lower start can be
    // told apart, so the walk ends there.
    if (j == 0.0 || !(j - 1.0 < j)) break;
  }
  // A run adds once per window, so a walk that joined one window twice
  // leaves none.
  run_k_ = joined > 0 && distinct ? k : kNoRun;
  run_ts_ = ts;
}

void AggregateFamily::Close(VirtualTime now) {
  while (!open_.empty() &&
         open_.begin()->first + key_.window.size <= now) {
    WindowMap::node_type node = open_.extract(open_.begin());
    Window& w = node.mapped();
    for (uint32_t slot = 0; slot < w.groups.size(); ++slot) {
      w.order.emplace_back(w.groups[slot].key.ToKey(), slot);
    }
    std::sort(w.order.begin(), w.order.end());
    closing_.push_back(std::move(node));
    run_k_ = kNoRun;
  }
}

void AggregateFamily::Emit(Member* member, VirtualTime now,
                           std::vector<Tuple>* out) {
  if (pending_ == 0) {
    Close(now);
    if (closing_.empty()) return;
    pending_ = members_.size();
  }
  for (const WindowMap::node_type& node : closing_) {
    EmitWindow(*member, node.key(), node.mapped(), out);
  }
  if (--pending_ > 0) return;
  for (WindowMap::node_type& node : closing_) {
    Window& w = node.mapped();
    w.groups.clear();
    std::fill(w.table.begin(), w.table.end(), 0);
    w.order.clear();
    spare_.push_back(std::move(node));
  }
  closing_.clear();
}

void AggregateFamily::EmitWindow(const Member& member, VirtualTime start,
                                 const Window& w,
                                 std::vector<Tuple>* out) const {
  const Cell* const row = w.cells.data() + member.pos * stride_;
  const VirtualTime end = start + key_.window.size;
  for (const auto& [text, slot] : w.order) {
    const Cell& cell = row[slot];
    if (cell.count == 0) continue;
    Value values[3];  // [group (if grouped), window_end, value].
    size_t n = 0;
    if (key_.group_field >= 0) values[n++] = cell.value;
    values[n++] = Value(end);
    values[n++] = Value(cell.Final(member.fn));
    out->emplace_back(member.schema, std::span<const Value>(values, n), end);
  }
}

}  // namespace streambid::stream
