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
}

void SelectOperator::Process(int port, std::span<const Tuple> batch,
                             std::vector<Tuple>* out) {
  STREAMBID_DCHECK(port == 0);
  (void)port;
  for (const Tuple& tuple : batch) {
    if (EvalCompare(tuple.value(field_index_), op_, operand_)) {
      out->push_back(tuple);
    }
  }
}

}  // namespace streambid::stream
