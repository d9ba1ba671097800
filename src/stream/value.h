// Copyright 2026 The streambid Authors
// Typed scalar values flowing through the stream engine.
//
// A Value is a 16-byte, trivially copyable tagged scalar: an int64, a
// double, or a pointer to one interned string. Every string Value points
// into one process-wide, append-only pool that holds each distinct text
// once, with its hash, so copying a string Value copies a pointer,
// equality compares pointers, and hashing a string key reads the stored
// hash.
//
// Who interns and when: a string Value is interned when it is made from
// text (the string constructors below). Sources intern their symbols,
// companies and categories once, when they are constructed, and copy
// those Values into every tuple; plan operands and test literals intern
// when they are built. No operator makes a string Value from text: they
// copy the Values they read.
//
// The pool is a leaked singleton, so its entries are never freed. That
// keeps two promises without reference counting each Value: a tuple
// taken out of a sink stays valid after its engine is destroyed, and
// Values built outside any engine (plan operands, test literals) stay
// valid as long as anything holds them. The cost is memory: the pool
// keeps one entry for every distinct string ever made into a Value, for
// the life of the process. Tenants' plans reach it only through their
// string operands (a select's constant), one entry per distinct text.
// Interning takes the pool's mutex (a leaf rank in common/lock_order.h);
// reading an entry through a Value takes no lock.

#ifndef STREAMBID_STREAM_VALUE_H_
#define STREAMBID_STREAM_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/check.h"

namespace streambid::stream {

/// Scalar type tags for schema fields.
enum class ValueType {
  kInt64,
  kDouble,
  kString,
};

/// A dynamically typed scalar. Streams carry small tuples of these;
/// numeric comparisons promote int64 to double. See the file comment
/// for the string pool.
class Value {
 public:
  /// One interned string: its text and std::hash<std::string_view> of
  /// it. Immutable and never freed once interned.
  struct Entry {
    std::string text;
    size_t hash;
  };

  Value() : type_(ValueType::kInt64), int_(0) {}
  // NOLINTNEXTLINE(google-explicit-constructor): literal-friendly.
  Value(int64_t v) : type_(ValueType::kInt64), int_(v) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(int v) : type_(ValueType::kInt64), int_(v) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(double v) : type_(ValueType::kDouble), double_(v) {}
  /// Interns `v` (takes the pool's mutex).
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(const std::string& v) : Value(Intern(v)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(const char* v) : Value(Intern(v)) {}

  ValueType type() const { return type_; }

  bool is_numeric() const { return type_ != ValueType::kString; }

  int64_t AsInt64() const {
    STREAMBID_CHECK(type_ == ValueType::kInt64);
    return int_;
  }

  /// Numeric coercion (int64 or double); CHECK-fails on strings.
  double AsDouble() const {
    if (type_ == ValueType::kInt64) return static_cast<double>(int_);
    STREAMBID_CHECK(type_ == ValueType::kDouble);
    return double_;
  }

  /// The interned text: equal strings return one object.
  const std::string& AsString() const {
    STREAMBID_CHECK(type_ == ValueType::kString);
    return entry_->text;
  }

  /// Equality: numeric values compare by promoted double; strings by
  /// content (one entry per text); mixed string/numeric is false.
  bool operator==(const Value& other) const {
    if (is_numeric() && other.is_numeric()) {
      return AsDouble() == other.AsDouble();
    }
    if (!is_numeric() && !other.is_numeric()) return entry_ == other.entry_;
    return false;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Ordering for numeric values and lexicographic for strings (by text,
  /// never by entry address); CHECK-fails on mixed comparison.
  bool operator<(const Value& other) const {
    if (is_numeric() && other.is_numeric()) {
      return AsDouble() < other.AsDouble();
    }
    STREAMBID_CHECK(!is_numeric() && !other.is_numeric());
    return entry_->text < other.entry_->text;
  }

  /// Render for debugging and sinks.
  std::string ToString() const;

  /// Hash key usable for group-by and join keys: "i:<int>", "d:<%.6g>"
  /// or "s:<string>", so 1, 1.0 and "1" key apart while doubles that
  /// print alike at six significant digits key together.
  std::string ToKey() const;

  /// True exactly when ToKey() == other.ToKey(), without building either
  /// key: int64 values compare by value, strings by entry, doubles by
  /// their %.6g spelling (rendered only when the two are not
  /// bit-identical).
  bool SameKey(const Value& other) const;

  /// Hash that agrees with SameKey (equal for same-key values). A
  /// string's is its entry's stored hash of the text.
  size_t KeyHash() const;

 private:
  explicit Value(const Entry* entry)
      : type_(ValueType::kString), entry_(entry) {}

  // The pool's entry for `text`, added on first sight.
  static const Entry* Intern(std::string_view text);

  ValueType type_;
  union {
    int64_t int_;
    double double_;
    const Entry* entry_;
  };
};

static_assert(std::is_trivially_copyable_v<Value>,
              "tuples copy values as bytes");
static_assert(sizeof(Value) == 16, "a tag and one 8-byte scalar");

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
