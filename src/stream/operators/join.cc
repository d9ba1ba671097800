// Copyright 2026 The streambid Authors

#include "stream/operators/join.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"

namespace streambid::stream {

JoinOperator::JoinOperator(const SchemaPtr& left_schema,
                           const SchemaPtr& right_schema,
                           const std::string& left_key,
                           const std::string& right_key,
                           VirtualTime window, SchemaPtr schema)
    : schema_(std::move(schema)), window_(window) {
  STREAMBID_CHECK_GT(window, 0.0);
  sides_[0].key_index = left_schema->FieldIndex(left_key);
  sides_[1].key_index = right_schema->FieldIndex(right_key);
  STREAMBID_CHECK_GE(sides_[0].key_index, 0);
  STREAMBID_CHECK_GE(sides_[1].key_index, 0);
}

void JoinOperator::Emit(const Tuple& left, const Tuple& right,
                        std::vector<Tuple>* out) {
  const std::span<const Value> l = left.values();
  const std::span<const Value> r = right.values();
  scratch_.assign(l.begin(), l.end());
  scratch_.insert(scratch_.end(), r.begin(), r.end());
  out->emplace_back(schema_, scratch_,
                    std::max(left.timestamp(), right.timestamp()));
  scratch_.clear();
}

void JoinOperator::Process(int port, std::span<const Tuple> batch,
                           std::vector<Tuple>* out) {
  STREAMBID_DCHECK(port == 0 || port == 1);
  Side& mine = sides_[port];
  Side& other = sides_[1 - port];
  for (const Tuple& tuple : batch) {
    const Value& key = tuple.value(mine.key_index);
    // Probe the other side within the window.
    auto it = other.table.find(key);
    if (it != other.table.end()) {
      for (const Tuple& match : it->second) {
        if (match.timestamp() >= tuple.timestamp() - window_) {
          if (port == 0) {
            Emit(tuple, match, out);
          } else {
            Emit(match, tuple, out);
          }
        }
      }
    }
    mine.Insert(key, tuple);
  }
}

void JoinOperator::AdvanceTime(VirtualTime now, std::vector<Tuple>* out) {
  (void)out;  // Joins emit only on arrival.
  for (Side& side : sides_) side.EvictOlderThan(now - window_);
}

size_t JoinOperator::BufferedTuples() const {
  return sides_[0].buffered + sides_[1].buffered;
}

}  // namespace streambid::stream
