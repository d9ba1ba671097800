// Copyright 2026 The streambid Authors
// Projection operator: keeps a subset of fields (in the given order).

#ifndef STREAMBID_STREAM_OPERATORS_PROJECT_H_
#define STREAMBID_STREAM_OPERATORS_PROJECT_H_

#include <span>
#include <string>
#include <vector>

#include "stream/operator.h"

namespace streambid::stream {

/// project(f1,f2,...): emits the named fields, in order, as tuples of
/// `schema` (OpSpec::OutputSchema).
class ProjectOperator : public OperatorBase {
 public:
  ProjectOperator(const SchemaPtr& input_schema,
                  const std::vector<std::string>& fields, SchemaPtr schema);

  using OperatorBase::Process;
  void Process(int port, std::span<const Tuple> batch,
               std::vector<Tuple>* out) override;

 private:
  SchemaPtr schema_;
  std::vector<int> indices_;
  std::vector<Value> scratch_;  // The output's values, copied into it.
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATORS_PROJECT_H_
