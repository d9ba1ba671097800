// Copyright 2026 The streambid Authors
// Union operator: merges two streams with identical schemas.

#ifndef STREAMBID_STREAM_OPERATORS_UNION_OP_H_
#define STREAMBID_STREAM_OPERATORS_UNION_OP_H_

#include <span>
#include <vector>

#include "common/check.h"
#include "stream/operator.h"

namespace streambid::stream {

/// union(left, right) — pass-through merge.
class UnionOperator : public OperatorBase {
 public:
  UnionOperator(const SchemaPtr& left_schema, const SchemaPtr& right_schema) {
    STREAMBID_CHECK(*left_schema == *right_schema);
  }

  using OperatorBase::Process;
  void Process(int port, std::span<const Tuple> batch,
               std::vector<Tuple>* out) override {
    STREAMBID_DCHECK(port == 0 || port == 1);
    (void)port;
    out->insert(out->end(), batch.begin(), batch.end());
  }
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATORS_UNION_OP_H_
