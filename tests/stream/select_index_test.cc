// Copyright 2026 The streambid Authors
// The grouped-select index against EvalCompare, the definition of what
// each member select passes.

#include "stream/select_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace streambid::stream {
namespace {

TEST(SelectIndexTest, AgreesWithEvalCompare) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                           CompareOp::kGe, CompareOp::kEq, CompareOp::kNe};
  // int64 2 and double 2.0 are two selects with one threshold.
  const std::vector<Value> operands = {Value(int64_t{2}), Value(2.0),
                                       Value(2.5),        Value(-0.0),
                                       Value(inf),        Value(nan)};
  // One batch of int64 and double values, each tuple stamped with its
  // position.
  const SchemaPtr ints = MakeSchema({{"x", ValueType::kInt64}});
  const SchemaPtr doubles = MakeSchema({{"x", ValueType::kDouble}});
  const std::vector<Value> values = {
      Value(int64_t{-3}), Value(int64_t{0}), Value(int64_t{2}),
      Value(-3.0),        Value(0.0),        Value(-0.0),
      Value(2.0),         Value(2.5),        Value(inf),
      Value(-inf),        Value(nan)};
  std::vector<Tuple> batch;
  for (const Value& v : values) {
    batch.emplace_back(v.type() == ValueType::kInt64 ? ints : doubles,
                       std::initializer_list<Value>{v},
                       static_cast<VirtualTime>(batch.size()));
  }

  struct Member {
    CompareOp op;
    Value operand;
    std::vector<Tuple> out;
    bool in_index = true;
  };
  std::vector<Member> members;
  for (CompareOp op : ops) {
    for (const Value& operand : operands) {
      members.push_back(Member{op, operand, {}, true});
    }
  }
  SelectIndex index(/*field=*/0);
  EXPECT_EQ(index.field(), 0);
  EXPECT_TRUE(index.empty());
  for (Member& m : members) index.Add(m.op, m.operand.AsDouble(), &m.out);

  // Routes the batch and checks every member's batch: the positions
  // EvalCompare passes, in batch order, for a member still in the index,
  // and nothing for one removed.
  auto route_and_check = [&](const std::string& when) {
    for (Member& m : members) m.out.clear();
    index.Route(batch);
    for (const Member& m : members) {
      SCOPED_TRACE(when + ": x " + CompareOpToken(m.op) + " " +
                   m.operand.ToString() +
                   (m.operand.type() == ValueType::kInt64 ? " (int64)" : ""));
      std::vector<VirtualTime> want;
      for (const Tuple& t : batch) {
        if (m.in_index && EvalCompare(t.value(0), m.op, m.operand)) {
          want.push_back(t.timestamp());
        }
      }
      std::vector<VirtualTime> got;
      for (const Tuple& t : m.out) got.push_back(t.timestamp());
      EXPECT_EQ(got, want);
    }
  };
  route_and_check("all members");
  // The NaN rule pinned: against a NaN on either side, >, >= and != pass
  // and the other ops do not.
  for (const Member& m : members) {
    const bool negated = m.op == CompareOp::kGt || m.op == CompareOp::kGe ||
                         m.op == CompareOp::kNe;
    if (std::isnan(m.operand.AsDouble())) {
      EXPECT_EQ(m.out.size(), negated ? batch.size() : 0u)
          << CompareOpToken(m.op);
    }
    const bool passes_nan_value =
        !m.out.empty() && std::isnan(m.out.back().value(0).AsDouble());
    EXPECT_EQ(passes_nan_value, negated) << CompareOpToken(m.op);
  }

  // Remove the members one at a time in a scattered order (7 is coprime
  // with the 36 members), NaN operands included.
  for (size_t i = 0; i < members.size(); ++i) {
    Member& m = members[(i * 7) % members.size()];
    ASSERT_TRUE(m.in_index);
    EXPECT_FALSE(index.empty());
    index.Remove(&m.out);
    m.in_index = false;
    route_and_check("after " + std::to_string(i + 1) + " removals");
  }
  EXPECT_TRUE(index.empty());
}

}  // namespace
}  // namespace streambid::stream
