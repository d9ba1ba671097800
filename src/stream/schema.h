// Copyright 2026 The streambid Authors
// Tuple schemas: ordered, named, typed fields.

#ifndef STREAMBID_STREAM_SCHEMA_H_
#define STREAMBID_STREAM_SCHEMA_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/value.h"

namespace streambid::stream {

/// A named, typed field.
struct Field {
  std::string name;
  ValueType type;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type;
  }
};

/// Immutable ordered field list. Schemas are shared between tuples via
/// shared_ptr; operators derive output schemas at plan-build time.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const Field& field(int i) const { return fields_[static_cast<size_t>(i)]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the field named `name`, or -1.
  int FieldIndex(const std::string& name) const {
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (fields_[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  bool HasField(const std::string& name) const {
    return FieldIndex(name) >= 0;
  }

  bool operator==(const Schema& other) const {
    return fields_ == other.fields_;
  }

 private:
  std::vector<Field> fields_;
};

using SchemaPtr = std::shared_ptr<const Schema>;

/// Builds a shared schema.
inline SchemaPtr MakeSchema(std::vector<Field> fields) {
  return std::make_shared<const Schema>(std::move(fields));
}

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_SCHEMA_H_
