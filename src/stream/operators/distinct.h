// Copyright 2026 The streambid Authors
// Windowed duplicate elimination: forwards a tuple only if no tuple with
// the same key field was seen within the trailing window (dedup for
// alert-style queries: "notify once per company per hour").

#ifndef STREAMBID_STREAM_OPERATORS_DISTINCT_H_
#define STREAMBID_STREAM_OPERATORS_DISTINCT_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/operator.h"

namespace streambid::stream {

/// distinct(field within window seconds).
class DistinctOperator : public OperatorBase {
 public:
  DistinctOperator(const SchemaPtr& input_schema,
                   const std::string& key_field, VirtualTime window);

  using OperatorBase::Process;
  void Process(int port, std::span<const Tuple> batch,
               std::vector<Tuple>* out) override;

  void AdvanceTime(VirtualTime now, std::vector<Tuple>* out) override;

  /// Keys currently suppressed (tests/monitoring).
  size_t TrackedKeys() const { return last_seen_.size(); }

 private:
  int key_index_;
  VirtualTime window_;
  // Key value (under ToKey's classes) -> timestamp it last passed.
  std::unordered_map<Value, VirtualTime, ValueKeyHash, ValueKeyEqual>
      last_seen_;
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATORS_DISTINCT_H_
