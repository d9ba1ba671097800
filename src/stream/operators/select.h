// Copyright 2026 The streambid Authors
// Selection (filter) operator: passes tuples matching a comparison
// predicate on one field.

#ifndef STREAMBID_STREAM_OPERATORS_SELECT_H_
#define STREAMBID_STREAM_OPERATORS_SELECT_H_

#include <string>
#include <vector>

#include "stream/operator.h"

namespace streambid::stream {

/// Comparison predicates supported by Select.
enum class CompareOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// Stable token for signatures ("<", "<=", ...).
const char* CompareOpToken(CompareOp op);

/// Evaluates `lhs OP rhs`.
bool EvalCompare(const Value& lhs, CompareOp op, const Value& rhs);

/// select(field OP constant). Over a numeric field with a numeric
/// operand, the operand is converted to a double once and each tuple's
/// field compares as a double, by EvalCompare's formulas (so a NaN
/// operand behaves as it does there); a string field or operand goes
/// through EvalCompare.
class SelectOperator : public OperatorBase {
 public:
  SelectOperator(const SchemaPtr& input_schema, const std::string& field,
                 CompareOp op, Value operand);

  void Process(int port, const Tuple& tuple,
               std::vector<Tuple>* out) override;

 private:
  int field_index_;
  CompareOp op_;
  Value operand_;
  bool numeric_;         // Numeric field and numeric operand.
  double number_ = 0.0;  // operand_.AsDouble() when numeric_.
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATORS_SELECT_H_
