// Copyright 2026 The streambid Authors

#include "stream/value.h"

#include <bit>
#include <cstdio>
#include <functional>
#include <string_view>

namespace streambid::stream {

namespace {

// Spells `x` as ToString and ToKey do (%.6g) into `buf`; returns the
// spelling.
std::string_view RenderDouble(double x, char (&buf)[32]) {
  const int n = std::snprintf(buf, sizeof(buf), "%.6g", x);
  return std::string_view(buf, static_cast<size_t>(n));
}

}  // namespace

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      char buf[32];
      return std::string(RenderDouble(AsDouble(), buf));
    }
    case ValueType::kString:
      return AsString();
  }
  return {};
}

std::string Value::ToKey() const {
  // Distinguish 1 (int) from "1" (string) in keys.
  switch (type()) {
    case ValueType::kInt64:
      return "i:" + std::to_string(AsInt64());
    case ValueType::kDouble:
      return "d:" + ToString();
    case ValueType::kString:
      return "s:" + AsString();
  }
  return {};
}

bool Value::SameKey(const Value& other) const {
  if (data_.index() != other.data_.index()) return false;
  switch (type()) {
    case ValueType::kInt64:
      return std::get<int64_t>(data_) == std::get<int64_t>(other.data_);
    case ValueType::kString:
      return std::get<std::string>(data_) ==
             std::get<std::string>(other.data_);
    case ValueType::kDouble: {
      const double a = std::get<double>(data_);
      const double b = std::get<double>(other.data_);
      if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
        return true;
      }
      char buf_a[32];
      char buf_b[32];
      return RenderDouble(a, buf_a) == RenderDouble(b, buf_b);
    }
  }
  return false;
}

size_t Value::KeyHash() const {
  switch (type()) {
    case ValueType::kInt64:
      return std::hash<int64_t>()(std::get<int64_t>(data_));
    case ValueType::kString:
      return std::hash<std::string_view>()(std::get<std::string>(data_));
    case ValueType::kDouble: {
      // Hash the spelling SameKey compares; the salt keeps 1.0 off the
      // string "1"'s hash.
      char buf[32];
      return std::hash<std::string_view>()(
                 RenderDouble(std::get<double>(data_), buf)) ^
             size_t{0x9E3779B97F4A7C15ull};
    }
  }
  return 0;
}

}  // namespace streambid::stream
