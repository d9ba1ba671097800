// Copyright 2026 The streambid Authors
// Map operator: computes one new numeric field from an existing field
// and a constant (the streaming analogue of a scalar expression).

#ifndef STREAMBID_STREAM_OPERATORS_MAP_H_
#define STREAMBID_STREAM_OPERATORS_MAP_H_

#include <span>
#include <string>
#include <vector>

#include "stream/operator.h"

namespace streambid::stream {

/// Arithmetic applied by MapOperator.
enum class MapFn { kAdd, kSub, kMul, kDiv };

/// Stable token for signatures ("+", "-", "*", "/").
const char* MapFnToken(MapFn fn);

/// map(out = field FN constant): appends the result to the input values
/// as the last field of `schema` (OpSpec::OutputSchema).
class MapOperator : public OperatorBase {
 public:
  MapOperator(const SchemaPtr& input_schema, const std::string& field,
              MapFn fn, double operand, SchemaPtr schema);

  using OperatorBase::Process;
  void Process(int port, std::span<const Tuple> batch,
               std::vector<Tuple>* out) override;

 private:
  SchemaPtr schema_;
  int field_index_;
  MapFn fn_;
  double operand_;
  std::vector<Value> scratch_;  // The output's values, copied into it.
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATORS_MAP_H_
