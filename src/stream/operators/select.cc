// Copyright 2026 The streambid Authors

#include "stream/operators/select.h"

#include "common/check.h"

namespace streambid::stream {

const char* CompareOpToken(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
  }
  return "?";
}

namespace {

// EvalCompare for two numbers, with Value's numeric < and == on doubles.
bool CompareNumbers(double lhs, CompareOp op, double rhs) {
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs < rhs || lhs == rhs;
    case CompareOp::kGt:
      return !(lhs < rhs) && !(lhs == rhs);
    case CompareOp::kGe:
      return !(lhs < rhs);
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return !(lhs == rhs);
  }
  return false;
}

}  // namespace

bool EvalCompare(const Value& lhs, CompareOp op, const Value& rhs) {
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs < rhs || lhs == rhs;
    case CompareOp::kGt:
      return !(lhs < rhs) && lhs != rhs;
    case CompareOp::kGe:
      return !(lhs < rhs);
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
  }
  return false;
}

SelectOperator::SelectOperator(const SchemaPtr& input_schema,
                               const std::string& field, CompareOp op,
                               Value operand)
    : field_index_(input_schema->FieldIndex(field)),
      op_(op),
      operand_(std::move(operand)) {
  STREAMBID_CHECK_GE(field_index_, 0);
  numeric_ = operand_.is_numeric() &&
             input_schema->field(field_index_).type != ValueType::kString;
  if (numeric_) number_ = operand_.AsDouble();
}

void SelectOperator::Process(int port, const Tuple& tuple,
                             std::vector<Tuple>* out) {
  STREAMBID_DCHECK(port == 0);
  (void)port;
  const Value& v = tuple.value(field_index_);
  if (numeric_ ? CompareNumbers(v.AsDouble(), op_, number_)
               : EvalCompare(v, op_, operand_)) {
    out->push_back(tuple);
  }
}

}  // namespace streambid::stream
