// Copyright 2026 The streambid Authors

#include "stream/operators/map.h"

#include <span>
#include <utility>

#include "common/check.h"

namespace streambid::stream {

const char* MapFnToken(MapFn fn) {
  switch (fn) {
    case MapFn::kAdd:
      return "+";
    case MapFn::kSub:
      return "-";
    case MapFn::kMul:
      return "*";
    case MapFn::kDiv:
      return "/";
  }
  return "?";
}

MapOperator::MapOperator(const SchemaPtr& input_schema,
                         const std::string& field, MapFn fn, double operand,
                         SchemaPtr schema)
    : schema_(std::move(schema)),
      field_index_(input_schema->FieldIndex(field)),
      fn_(fn),
      operand_(operand) {
  STREAMBID_CHECK_GE(field_index_, 0);
  STREAMBID_CHECK(fn != MapFn::kDiv || operand != 0.0);
}

void MapOperator::Process(int port, std::span<const Tuple> batch,
                          std::vector<Tuple>* out) {
  STREAMBID_DCHECK(port == 0);
  (void)port;
  for (const Tuple& tuple : batch) {
    const double x = tuple.value(field_index_).AsDouble();
    double y = 0.0;
    switch (fn_) {
      case MapFn::kAdd:
        y = x + operand_;
        break;
      case MapFn::kSub:
        y = x - operand_;
        break;
      case MapFn::kMul:
        y = x * operand_;
        break;
      case MapFn::kDiv:
        y = x / operand_;
        break;
    }
    const std::span<const Value> in = tuple.values();
    scratch_.assign(in.begin(), in.end());
    scratch_.emplace_back(y);
    out->emplace_back(schema_, scratch_, tuple.timestamp());
    scratch_.clear();
  }
}

}  // namespace streambid::stream
