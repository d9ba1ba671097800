// Copyright 2026 The streambid Authors

#include "stream/value.h"

#include <bit>
#include <cstdio>
#include <functional>
#include <unordered_set>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace streambid::stream {

namespace {

// Spells `x` as ToString and ToKey do (%.6g) into `buf`; returns the
// spelling.
std::string_view RenderDouble(double x, char (&buf)[32]) {
  const int n = std::snprintf(buf, sizeof(buf), "%.6g", x);
  return std::string_view(buf, static_cast<size_t>(n));
}

// Entries by text; a lookup by std::string_view builds no string.
struct EntryHash {
  using is_transparent = void;
  size_t operator()(const Value::Entry& e) const { return e.hash; }
  size_t operator()(std::string_view text) const {
    return std::hash<std::string_view>()(text);
  }
};
struct EntryEqual {
  using is_transparent = void;
  bool operator()(const Value::Entry& a, const Value::Entry& b) const {
    return a.text == b.text;
  }
  bool operator()(std::string_view a, const Value::Entry& b) const {
    return a == b.text;
  }
  bool operator()(const Value::Entry& a, std::string_view b) const {
    return a.text == b;
  }
};

// The process-wide string pool (see value.h). A node-based set keeps
// each entry at one address for the life of the process.
class StringPool {
 public:
  const Value::Entry* Intern(std::string_view text) {
    const size_t hash = EntryHash()(text);
    MutexLock lock(mutex_);
    auto it = entries_.find(text);
    if (it == entries_.end()) {
      it = entries_.insert(Value::Entry{std::string(text), hash}).first;
    }
    return &*it;
  }

 private:
  Mutex mutex_{LockRank::kValuePool, "stream/value_pool"};
  std::unordered_set<Value::Entry, EntryHash, EntryEqual> entries_
      GUARDED_BY(mutex_);
};

}  // namespace

const Value::Entry* Value::Intern(std::string_view text) {
  // Leaked on purpose: entries must outlive every Value, including those
  // in thread_local and static objects destroyed at exit.
  static StringPool* const pool = new StringPool;
  return pool->Intern(text);
}

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
  if (type_ != other.type_) return false;
  switch (type_) {
    case ValueType::kInt64:
      return int_ == other.int_;
    case ValueType::kString:
      return entry_ == other.entry_;
    case ValueType::kDouble: {
      if (std::bit_cast<uint64_t>(double_) ==
          std::bit_cast<uint64_t>(other.double_)) {
        return true;
      }
      char buf_a[32];
      char buf_b[32];
      return RenderDouble(double_, buf_a) == RenderDouble(other.double_, buf_b);
    }
  }
  return false;
}

size_t Value::KeyHash() const {
  switch (type_) {
    case ValueType::kInt64:
      return std::hash<int64_t>()(int_);
    case ValueType::kString:
      return entry_->hash;
    case ValueType::kDouble: {
      // Hash the spelling SameKey compares; the salt keeps 1.0 off the
      // string "1"'s hash.
      char buf[32];
      return std::hash<std::string_view>()(RenderDouble(double_, buf)) ^
             size_t{0x9E3779B97F4A7C15ull};
    }
  }
  return 0;
}

}  // namespace streambid::stream
