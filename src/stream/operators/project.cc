// Copyright 2026 The streambid Authors

#include "stream/operators/project.h"

#include <span>
#include <utility>

#include "common/check.h"

namespace streambid::stream {

ProjectOperator::ProjectOperator(const SchemaPtr& input_schema,
                                 const std::vector<std::string>& fields,
                                 SchemaPtr schema)
    : schema_(std::move(schema)) {
  for (const std::string& f : fields) {
    const int idx = input_schema->FieldIndex(f);
    STREAMBID_CHECK_GE(idx, 0);
    indices_.push_back(idx);
  }
}

void ProjectOperator::Process(int port, std::span<const Tuple> batch,
                              std::vector<Tuple>* out) {
  STREAMBID_DCHECK(port == 0);
  (void)port;
  for (const Tuple& tuple : batch) {
    for (int idx : indices_) scratch_.push_back(tuple.value(idx));
    out->emplace_back(schema_, scratch_, tuple.timestamp());
    scratch_.clear();
  }
}

}  // namespace streambid::stream
