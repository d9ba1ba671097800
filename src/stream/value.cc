// Copyright 2026 The streambid Authors

#include "stream/value.h"

#include <cstdio>

namespace streambid::stream {

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
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

}  // namespace streambid::stream
