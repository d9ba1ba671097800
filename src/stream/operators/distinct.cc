// Copyright 2026 The streambid Authors

#include "stream/operators/distinct.h"

#include "common/check.h"

namespace streambid::stream {

DistinctOperator::DistinctOperator(const SchemaPtr& input_schema,
                                   const std::string& key_field,
                                   VirtualTime window)
    : key_index_(input_schema->FieldIndex(key_field)),
      window_(window) {
  STREAMBID_CHECK_GE(key_index_, 0);
  STREAMBID_CHECK_GT(window, 0.0);
}

void DistinctOperator::Process(int port, std::span<const Tuple> batch,
                               std::vector<Tuple>* out) {
  STREAMBID_DCHECK(port == 0);
  (void)port;
  for (const Tuple& tuple : batch) {
    const Value& key = tuple.value(key_index_);
    auto it = last_seen_.find(key);
    if (it != last_seen_.end() &&
        tuple.timestamp() - it->second < window_) {
      continue;  // Duplicate within the window: suppressed.
    }
    last_seen_[key] = tuple.timestamp();
    out->push_back(tuple);
  }
}

void DistinctOperator::AdvanceTime(VirtualTime now,
                                   std::vector<Tuple>* out) {
  (void)out;
  for (auto it = last_seen_.begin(); it != last_seen_.end();) {
    it = (now - it->second >= window_) ? last_seen_.erase(it)
                                       : std::next(it);
  }
}

}  // namespace streambid::stream
