// Copyright 2026 The streambid Authors

#include "stream/tuple.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define STREAMBID_TUPLE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STREAMBID_TUPLE_ASAN 1
#endif
#endif

namespace streambid::stream {
namespace {

SchemaPtr QuoteSchema() {
  return MakeSchema({{"symbol", ValueType::kString},
                     {"price", ValueType::kDouble}});
}

SchemaPtr TradeSchema() {
  return MakeSchema({{"symbol", ValueType::kString},
                     {"price", ValueType::kDouble},
                     {"volume", ValueType::kInt64}});
}

uintptr_t BlockOf(const Tuple& t) {
  return reinterpret_cast<uintptr_t>(t.values().data());
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
  EXPECT_EQ(copy.values().data(), t.values().data());
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

TEST(TupleTest, ConstructorCopiesTheCallersValues) {
  std::vector<Value> buffer = {Value("IBM"), Value(101.5)};
  const Tuple made(QuoteSchema(), buffer, 1.0);
  const Tuple copied(QuoteSchema(), made.values(), 2.0);
  buffer[1] = Value(7.0);  // The caller refills its own buffer.
  EXPECT_DOUBLE_EQ(made.value(1).AsDouble(), 101.5);
  EXPECT_DOUBLE_EQ(copied.value(1).AsDouble(), 101.5);
  EXPECT_NE(copied.values().data(), made.values().data());
  // A string value copies its interned entry, not the text.
  EXPECT_EQ(&made.value(0).AsString(), &buffer[0].AsString());
  EXPECT_EQ(&copied.value(0).AsString(), &buffer[0].AsString());
}

TEST(TupleTest, ReleasedBlockIsReusedForItsWidth) {
  // A fresh thread starts with empty free lists; this one's may be full.
  std::thread([] {
    uintptr_t released = 0;
    {
      const Tuple t(QuoteSchema(), {Value("IBM"), Value(1.0)}, 1.0);
      released = BlockOf(t);
    }
    const Tuple wider(TradeSchema(),
                      {Value("IBM"), Value(1.0), Value(int64_t{7})}, 2.0);
    EXPECT_NE(BlockOf(wider), released);
    const Tuple reused(QuoteSchema(), {Value("MSFT"), Value(2.0)}, 3.0);
    EXPECT_EQ(BlockOf(reused), released);
    EXPECT_EQ(reused.value(0).AsString(), "MSFT");
    EXPECT_DOUBLE_EQ(reused.timestamp(), 3.0);
  }).join();
}

TEST(TupleTest, HandlesCrossThreadsAfterJoin) {
  // One thread at a time per payload, ordered by thread start and join:
  // the blocks are made on one thread, copied and partly released on
  // this one and released for good on a third, whose free list frees
  // them when it exits.
  std::vector<Tuple> made;
  std::thread maker([&made] {
    for (int i = 0; i < 50; ++i) {
      made.push_back(Tuple(QuoteSchema(), {Value("IBM"), Value(1.0 * i)}, i));
      made.push_back(Tuple(TradeSchema(),
                           {Value("IBM"), Value(1.0 * i), Value(int64_t{i})},
                           i));
    }
  });
  maker.join();
  std::vector<Tuple> copies(made.rbegin(), made.rend());
  for (size_t i = 0; i < made.size(); i += 2) made[i] = Tuple();
  made.clear();
  for (size_t i = 0; i < copies.size(); ++i) {
    const int n = static_cast<int>(copies.size() - 1 - i) / 2;
    EXPECT_DOUBLE_EQ(copies[i].value(1).AsDouble(), 1.0 * n);
    EXPECT_DOUBLE_EQ(copies[i].timestamp(), n);
  }
  std::thread releaser([&copies] { copies.clear(); });
  releaser.join();
  EXPECT_TRUE(copies.empty());
}

// Holds a tuple until its thread's thread_local destructors run.
struct Holder {
  Tuple tuple;
};

TEST(TupleTest, ReleaseAfterTheThreadListIsGone) {
  std::thread([] {
    // Constructed before the thread's first block, so destroyed after
    // the thread's free lists: its release must free the block itself
    // (LeakSanitizer reports the block otherwise).
    thread_local Holder holder;
    holder.tuple = Tuple(QuoteSchema(), {Value("IBM"), Value(1.0)}, 1.0);
    const Tuple cached(QuoteSchema(), {Value("MSFT"), Value(2.0)}, 2.0);
    EXPECT_EQ(holder.tuple.value(0).AsString(), "IBM");
  }).join();
}

#if defined(STREAMBID_TUPLE_ASAN)
TEST(TupleDeathTest, ValueReadAfterLastReleaseReports) {
  // A re-executed child starts with empty free lists, so the released
  // block is cached (poisoned) rather than freed.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        const Value* kept = nullptr;
        {
          const Tuple t(QuoteSchema(), {Value("IBM"), Value(101.5)}, 1.0);
          kept = &t.value(1);
        }
        volatile double read = kept->AsDouble();
        (void)read;
      },
      "AddressSanitizer: use-after-poison");
}
#endif

TEST(TupleTest, ToStringMentionsFields) {
  Tuple t(QuoteSchema(), {Value("A"), Value(1.0)}, 0.0);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("symbol=A"), std::string::npos);
  EXPECT_NE(s.find("price=1"), std::string::npos);
}

}  // namespace
}  // namespace streambid::stream
