// Copyright 2026 The streambid Authors

#include "stream/value.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
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
      Value(std::string("IBM")),  // A second Value of an interned text.
      Value("value-test-b"),
      Value("value-test-a"),
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

TEST(ValueTest, EqualTextsShareOneEntry) {
  const std::string text = "value-test-shared";
  const Value a(text);
  const Value b(text.c_str());
  const Value copy = a;
  EXPECT_EQ(&a.AsString(), &b.AsString());
  EXPECT_EQ(&copy.AsString(), &a.AsString());
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.SameKey(b));
  EXPECT_EQ(a.KeyHash(), std::hash<std::string_view>()(text));
  EXPECT_NE(&Value("value-test-other").AsString(), &a.AsString());
}

TEST(ValueTest, IntDoubleAndStringOneKeyApart) {
  const Value i(int64_t{1});
  const Value d(1.0);
  const Value s("1");
  EXPECT_EQ(i.ToKey(), "i:1");
  EXPECT_EQ(d.ToKey(), "d:1");
  EXPECT_EQ(s.ToKey(), "s:1");
  EXPECT_FALSE(i.SameKey(d));
  EXPECT_FALSE(i.SameKey(s));
  EXPECT_FALSE(d.SameKey(s));
  EXPECT_EQ(i, d);  // Numeric equality still promotes.
  EXPECT_NE(i, s);
  EXPECT_NE(d, s);
}

TEST(ValueTest, StringsOrderByTextNotByInterningOrder) {
  // Interned in reverse order, so their entries' addresses need not
  // follow their text.
  const Value b("value-test-order-b");
  const Value a("value-test-order-a");
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
  EXPECT_LT(Value("value-test-order-a"), Value("value-test-order-aa"));
}

TEST(ValueTest, InternsFromManyThreads) {
  // Eight threads intern the same strings at once; every thread must get
  // the one entry per text.
  constexpr int kThreads = 8;
  constexpr int kStrings = 1000;
  std::vector<std::string> texts;
  for (int i = 0; i < kStrings; ++i) {
    texts.push_back("value-test-thread-" + std::to_string(i));
  }
  std::vector<std::vector<const std::string*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&texts, &seen, t] {
      for (int i = 0; i < kStrings; ++i) {
        // Each thread walks the texts from a different offset.
        const int j = (i + t * kStrings / kThreads) % kStrings;
        seen[t].push_back(&Value(texts[j]).AsString());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), static_cast<size_t>(kStrings));
    for (int i = 0; i < kStrings; ++i) {
      const int j = (i + t * kStrings / kThreads) % kStrings;
      EXPECT_EQ(seen[t][i], &Value(texts[j]).AsString());
      EXPECT_EQ(*seen[t][i], texts[j]);
    }
  }
}

TEST(ValueTest, DefaultIsZeroInt) {
  Value v;
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt64(), 0);
}

}  // namespace
}  // namespace streambid::stream
