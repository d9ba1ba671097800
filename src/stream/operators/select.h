// Copyright 2026 The streambid Authors
// Selection (filter) operator: passes tuples matching a comparison
// predicate on one field.

#ifndef STREAMBID_STREAM_OPERATORS_SELECT_H_
#define STREAMBID_STREAM_OPERATORS_SELECT_H_

#include <span>
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

/// select(field OP constant), through EvalCompare. The engine runs it
/// only for a string field or a string operand: a select over a numeric
/// field with a numeric operand is a member of its input's SelectIndex
/// (stream/select_index.h) and builds no operator.
class SelectOperator : public OperatorBase {
 public:
  SelectOperator(const SchemaPtr& input_schema, const std::string& field,
                 CompareOp op, Value operand);

  using OperatorBase::Process;
  void Process(int port, std::span<const Tuple> batch,
               std::vector<Tuple>* out) override;

 private:
  int field_index_;
  CompareOp op_;
  Value operand_;
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_OPERATORS_SELECT_H_
