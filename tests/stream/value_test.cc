// Copyright 2026 The streambid Authors

#include "stream/value.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace streambid::stream {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  Value i(int64_t{42});
  EXPECT_EQ(i.type(), ValueType::kInt64);
  EXPECT_EQ(i.AsInt64(), 42);
  EXPECT_DOUBLE_EQ(i.AsDouble(), 42.0);

  Value d(3.5);
  EXPECT_EQ(d.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 3.5);

  Value s("IBM");
  EXPECT_EQ(s.type(), ValueType::kString);
  EXPECT_EQ(s.AsString(), "IBM");
}

TEST(ValueTest, NumericEqualityPromotes) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_NE(Value(int64_t{3}), Value(3.1));
  EXPECT_NE(Value(int64_t{3}), Value("3"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, OrderingNumeric) {
  EXPECT_LT(Value(1.0), Value(int64_t{2}));
  EXPECT_FALSE(Value(2.0) < Value(int64_t{2}));
}

TEST(ValueTest, OrderingStrings) {
  EXPECT_LT(Value("abc"), Value("abd"));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

TEST(ValueTest, KeysDistinguishTypes) {
  EXPECT_NE(Value(int64_t{1}).ToKey(), Value("1").ToKey());
  EXPECT_EQ(Value("IBM").ToKey(), Value("IBM").ToKey());
}

TEST(ValueTest, SameKeyMatchesToKey) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> values = {
      Value(int64_t{0}),
      Value(int64_t{1}),
      Value(int64_t{-1}),
      Value(int64_t{10}),
      Value(std::numeric_limits<int64_t>::min()),
      Value(1.0),
      Value(1.0000001),
      Value(1.0000002),
      Value(0.0),
      Value(-0.0),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value(inf),
      Value(-inf),
      Value(1e300),
      Value(""),
      Value("1"),
      Value("IBM"),
      Value(std::string(40, 'x')),
  };
  for (const Value& a : values) {
    for (const Value& b : values) {
      const bool same = a.ToKey() == b.ToKey();
      EXPECT_EQ(a.SameKey(b), same) << a.ToKey() << " vs " << b.ToKey();
      if (a.SameKey(b)) {
        EXPECT_EQ(a.KeyHash(), b.KeyHash()) << a.ToKey();
      }
    }
  }
  // The classes the keyed operators rely on.
  EXPECT_FALSE(Value(int64_t{1}).SameKey(Value(1.0)));
  EXPECT_FALSE(Value(int64_t{1}).SameKey(Value("1")));
  EXPECT_FALSE(Value(1.0).SameKey(Value("1")));
  EXPECT_TRUE(Value(1.0000001).SameKey(Value(1.0000002)));
  EXPECT_FALSE(Value(0.0).SameKey(Value(-0.0)));
}

TEST(ValueTest, DefaultIsZeroInt) {
  Value v;
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt64(), 0);
}

}  // namespace
}  // namespace streambid::stream
