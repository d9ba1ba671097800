// Copyright 2026 The streambid Authors
// Typed scalar values flowing through the stream engine.

#ifndef STREAMBID_STREAM_VALUE_H_
#define STREAMBID_STREAM_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "common/check.h"

namespace streambid::stream {

/// Scalar type tags for schema fields.
enum class ValueType {
  kInt64,
  kDouble,
  kString,
};

/// A dynamically typed scalar. Streams carry small tuples of these;
/// numeric comparisons promote int64 to double.
class Value {
 public:
  Value() : data_(int64_t{0}) {}
  // NOLINTNEXTLINE(google-explicit-constructor): literal-friendly.
  Value(int64_t v) : data_(v) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(int v) : data_(static_cast<int64_t>(v)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(double v) : data_(v) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(std::string v) : data_(std::move(v)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(const char* v) : data_(std::string(v)) {}

  ValueType type() const {
    switch (data_.index()) {
      case 0:
        return ValueType::kInt64;
      case 1:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_numeric() const { return type() != ValueType::kString; }

  int64_t AsInt64() const {
    STREAMBID_CHECK(type() == ValueType::kInt64);
    return std::get<int64_t>(data_);
  }

  /// Numeric coercion (int64 or double); CHECK-fails on strings.
  double AsDouble() const {
    if (type() == ValueType::kInt64) {
      return static_cast<double>(std::get<int64_t>(data_));
    }
    STREAMBID_CHECK(type() == ValueType::kDouble);
    return std::get<double>(data_);
  }

  const std::string& AsString() const {
    STREAMBID_CHECK(type() == ValueType::kString);
    return std::get<std::string>(data_);
  }

  /// Equality: numeric values compare by promoted double; strings by
  /// content; mixed string/numeric is false.
  bool operator==(const Value& other) const {
    if (is_numeric() && other.is_numeric()) {
      return AsDouble() == other.AsDouble();
    }
    if (!is_numeric() && !other.is_numeric()) {
      return AsString() == other.AsString();
    }
    return false;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Ordering for numeric values and lexicographic for strings;
  /// CHECK-fails on mixed comparison.
  bool operator<(const Value& other) const {
    if (is_numeric() && other.is_numeric()) {
      return AsDouble() < other.AsDouble();
    }
    STREAMBID_CHECK(!is_numeric() && !other.is_numeric());
    return AsString() < other.AsString();
  }

  /// Render for debugging and sinks.
  std::string ToString() const;

  /// Hash key usable for group-by and join keys: "i:<int>", "d:<%.6g>"
  /// or "s:<string>", so 1, 1.0 and "1" key apart while doubles that
  /// print alike at six significant digits key together.
  std::string ToKey() const;

  /// True exactly when ToKey() == other.ToKey(), without building either
  /// key: int64 and string values compare by value, doubles by their
  /// %.6g spelling (rendered only when the two are not bit-identical).
  bool SameKey(const Value& other) const;

  /// Hash that agrees with SameKey (equal for same-key values).
  size_t KeyHash() const;

 private:
  std::variant<int64_t, double, std::string> data_;
};

/// Hash and equality functors keying unordered containers by Value under
/// ToKey's equivalence classes (group-by, distinct and join state).
struct ValueKeyHash {
  size_t operator()(const Value& v) const { return v.KeyHash(); }
};
struct ValueKeyEqual {
  bool operator()(const Value& a, const Value& b) const {
    return a.SameKey(b);
  }
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_VALUE_H_
