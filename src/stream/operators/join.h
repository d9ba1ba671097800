// Copyright 2026 The streambid Authors
// Symmetric hash join over time windows: a tuple arriving on one side is
// matched against the other side's tuples whose timestamps lie within
// `window` seconds, equi-joined on one key field per side. The classic
// Example 1 pattern — joining selected stock quotes with selected news
// stories on the company symbol — is exactly this operator.

#ifndef STREAMBID_STREAM_OPERATORS_JOIN_H_
#define STREAMBID_STREAM_OPERATORS_JOIN_H_

#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/operator.h"

namespace streambid::stream {

/// join(left.key == right.key, window). Emits tuples of `schema`
/// (OpSpec::OutputSchema): the left values followed by the right ones.
class JoinOperator : public OperatorBase {
 public:
  JoinOperator(const SchemaPtr& left_schema, const SchemaPtr& right_schema,
               const std::string& left_key, const std::string& right_key,
               VirtualTime window, SchemaPtr schema);

  using OperatorBase::Process;
  void Process(int port, std::span<const Tuple> batch,
               std::vector<Tuple>* out) override;

  void AdvanceTime(VirtualTime now, std::vector<Tuple>* out) override;

  /// Tuples currently buffered on both sides (tests/monitoring).
  size_t BufferedTuples() const;

 private:
  struct Side {
    int key_index = -1;
    // Key value (under ToKey's classes) -> buffered tuples (insertion
    // order preserves timestamps).
    std::unordered_map<Value, std::deque<Tuple>, ValueKeyHash,
                       ValueKeyEqual>
        table;
    size_t buffered = 0;

    void Insert(const Value& key, const Tuple& tuple) {
      table[key].push_back(tuple);
      ++buffered;
    }

    void EvictOlderThan(VirtualTime cutoff) {
      for (auto it = table.begin(); it != table.end();) {
        auto& dq = it->second;
        while (!dq.empty() && dq.front().timestamp() < cutoff) {
          dq.pop_front();
          --buffered;
        }
        it = dq.empty() ? table.erase(it) : std::next(it);
      }
    }
  };

  void Emit(const Tuple& left, const Tuple& right, std::vector<Tuple>* out);

  SchemaPtr schema_;
  VirtualTime window_;
  Side sides_[2];  // 0 = left, 1 = right.
  std::vector<Value> scratch_;  // An output's values, copied into it.
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATORS_JOIN_H_
