// Copyright 2026 The streambid Authors

#include "stream/tuple.h"

#include <gtest/gtest.h>

namespace streambid::stream {
namespace {

SchemaPtr QuoteSchema() {
  return MakeSchema({{"symbol", ValueType::kString},
                     {"price", ValueType::kDouble}});
}

TEST(SchemaTest, FieldLookup) {
  SchemaPtr s = QuoteSchema();
  EXPECT_EQ(s->num_fields(), 2);
  EXPECT_EQ(s->FieldIndex("symbol"), 0);
  EXPECT_EQ(s->FieldIndex("price"), 1);
  EXPECT_EQ(s->FieldIndex("nope"), -1);
  EXPECT_TRUE(s->HasField("price"));
  EXPECT_FALSE(s->HasField("volume"));
}

TEST(SchemaTest, EqualityAndToString) {
  SchemaPtr a = QuoteSchema();
  SchemaPtr b = QuoteSchema();
  EXPECT_TRUE(*a == *b);
  SchemaPtr c = MakeSchema({{"x", ValueType::kInt64}});
  EXPECT_FALSE(*a == *c);
}

TEST(TupleTest, FieldAccess) {
  Tuple t(QuoteSchema(), {Value("IBM"), Value(101.5)}, 2.5);
  EXPECT_DOUBLE_EQ(t.timestamp(), 2.5);
  EXPECT_EQ(t.field("symbol").AsString(), "IBM");
  EXPECT_DOUBLE_EQ(t.field("price").AsDouble(), 101.5);
  EXPECT_EQ(t.value(0).AsString(), "IBM");
}

TEST(TupleTest, CopiesShareOnePayload) {
  const Tuple t(QuoteSchema(), {Value("IBM"), Value(101.5)}, 2.5);
  const Tuple copy = t;
  EXPECT_EQ(&copy.values(), &t.values());
  EXPECT_EQ(copy.schema(), t.schema());
  EXPECT_DOUBLE_EQ(copy.timestamp(), 2.5);
  EXPECT_EQ(copy.ToString(), t.ToString());
}

TEST(TupleTest, DefaultTupleIsEmpty) {
  const Tuple t;
  EXPECT_EQ(t.schema(), nullptr);
  EXPECT_TRUE(t.values().empty());
  EXPECT_DOUBLE_EQ(t.timestamp(), 0.0);
}

TEST(TupleTest, ToStringMentionsFields) {
  Tuple t(QuoteSchema(), {Value("A"), Value(1.0)}, 0.0);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("symbol=A"), std::string::npos);
  EXPECT_NE(s.find("price=1"), std::string::npos);
}

}  // namespace
}  // namespace streambid::stream
