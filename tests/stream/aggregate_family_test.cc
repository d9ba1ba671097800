// Copyright 2026 The streambid Authors
// Aggregate families against the per-tuple window walk of batch_feed.h:
// each member must emit exactly what an aggregate over its own input
// alone would, whatever the other members of its family read, however
// members come and go, and in whatever order they leave. The unit tests
// route each batch through a SelectIndex into a family; the engine tests
// run families of installed queries against a second instance of their
// source.

#include "stream/aggregate_family.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batch_feed.h"
#include "common/rng.h"
#include "stream/engine.h"
#include "stream/query_builder.h"
#include "stream/select_index.h"

namespace streambid::stream {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The schema an aggregate emits: its group field, if any, then
/// window_end and value.
SchemaPtr AggSchema(const SchemaPtr& input, int group_field) {
  std::vector<Field> fields;
  if (group_field >= 0) fields.push_back(input->field(group_field));
  fields.push_back({"window_end", ValueType::kDouble});
  fields.push_back({"value", ValueType::kDouble});
  return MakeSchema(std::move(fields));
}

std::vector<std::string> Spelled(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& t : tuples) out.push_back(Exact(t));
  return out;
}

// --- Families driven directly -------------------------------------------

/// The producer's tuples: sym (string), x (double), level (double).
SchemaPtr ProducerSchema() {
  return MakeSchema({{"sym", ValueType::kString},
                     {"x", ValueType::kDouble},
                     {"level", ValueType::kDouble}});
}
constexpr int kSym = 0;
constexpr int kX = 1;
constexpr int kLevel = 2;

/// One pass of the producer: its final batch, then the time its
/// consumers' windows advance to.
struct Pass {
  std::vector<Tuple> batch;
  VirtualTime now = 0.0;
};

/// A member: select(x OP threshold) in front of FN, joining before pass
/// `join` and leaving before pass `leave`.
struct MemberSpec {
  CompareOp op;
  double threshold;
  AggFn fn;
  size_t join = 0;
  size_t leave = std::numeric_limits<size_t>::max();
};

/// Runs `passes`, then a pass that closes every window, through a
/// SelectIndex over x and a family with `key`, members joining and
/// leaving between passes. Each member's output must be
/// ReferenceAggregate over the tuples EvalCompare passes from the
/// batches of the passes it was in, advanced at the end of each.
void ExpectMembersMatchTheWalk(std::vector<Pass> passes,
                               const AggregateFamily::Key& key,
                               const std::vector<MemberSpec>& specs) {
  const SchemaPtr input = ProducerSchema();
  const SchemaPtr schema = AggSchema(input, key.group_field);
  passes.push_back(Pass{{}, kCloseAll});
  SelectIndex index(kX);
  AggregateFamily family(key);
  struct State {
    std::vector<Tuple> in;  // The select's batch.
    AggregateFamily::Member* member = nullptr;
    std::vector<Tuple> out;
    BatchFeed own;  // What the member read, by EvalCompare.
  };
  std::vector<State> states(specs.size());
  for (size_t p = 0; p < passes.size(); ++p) {
    for (size_t m = 0; m < specs.size(); ++m) {
      const MemberSpec& spec = specs[m];
      State& state = states[m];
      if (spec.join == p) {
        index.Add(spec.op, spec.threshold, &state.in);
        state.member = family.Add(spec.fn, schema, &state.in);
      }
      if (spec.leave == p) {
        index.Remove(&state.in);
        family.Remove(state.member);
        state.member = nullptr;
      }
    }
    index.Route(passes[p].batch);
    family.Accumulate(passes[p].batch);
    for (size_t m = 0; m < specs.size(); ++m) {
      State& state = states[m];
      if (state.member == nullptr) continue;
      for (const Tuple& t : passes[p].batch) {
        if (EvalCompare(t.value(kX), specs[m].op, Value(specs[m].threshold))) {
          state.own.tuples.push_back(t);
        }
      }
      state.own.advances[state.own.tuples.size()] = passes[p].now;
      family.Emit(state.member, passes[p].now, &state.out);
      state.in.clear();
    }
  }
  bool any = false;
  for (size_t m = 0; m < specs.size(); ++m) {
    SCOPED_TRACE(testing::Message()
                 << "member " << m << ": " << AggFnName(specs[m].fn)
                 << " over x " << CompareOpToken(specs[m].op) << " "
                 << specs[m].threshold);
    const std::vector<std::string> expected =
        ReferenceAggregate(states[m].own, specs[m].fn, key.agg_field,
                           key.group_field, key.window, schema);
    EXPECT_EQ(Spelled(states[m].out), expected);
    any = any || !expected.empty();
  }
  EXPECT_TRUE(any);
}

/// `n` tuples per pass over passes ending at 1, 2, ..., `passes`, at
/// seeded timestamps inside each pass's second (out of order, some equal,
/// one late per pass, from the second before), with x drawn from a few
/// values that include NaN and the thresholds the tests use.
std::vector<Pass> SeededPasses(size_t passes, size_t n, uint64_t seed) {
  const SchemaPtr s = ProducerSchema();
  const Value syms[] = {Value("A"), Value("B"), Value("C")};
  const double xs[] = {0.0, 0.25, 0.5, 0.75, 1.0, kNaN, -0.0, 2.0};
  Rng rng(seed);
  std::vector<Pass> out;
  for (size_t p = 0; p < passes; ++p) {
    Pass pass;
    pass.now = static_cast<double>(p + 1);
    for (size_t i = 0; i < n; ++i) {
      double ts = static_cast<double>(p) + 0.125 * static_cast<double>(
                                                       rng.NextBounded(8));
      if (i == n - 1 && p > 0) ts -= 1.0;  // Late: the window may be closed.
      pass.batch.emplace_back(
          s,
          std::initializer_list<Value>{syms[rng.NextBounded(3)],
                                       Value(xs[rng.NextBounded(8)]),
                                       Value(1.0)},
          ts);
    }
    out.push_back(std::move(pass));
  }
  return out;
}

AggregateFamily::Key KeyOf(int agg_field, int group_field,
                           WindowSpec window) {
  AggregateFamily::Key key;
  key.agg_field = agg_field;
  key.group_field = group_field;
  key.window = window;
  return key;
}

TEST(AggregateFamilyTest, MixedMembersMatchTheWalk) {
  // sum, avg, min and max of x share one family; counts share another
  // (count reads no field). The selects use >, <, ==, >=, != and NaN
  // thresholds (> NaN passes every x, == NaN none).
  const std::vector<MemberSpec> fields = {
      {CompareOp::kGt, 0.25, AggFn::kSum},
      {CompareOp::kLt, 0.75, AggFn::kAvg},
      {CompareOp::kEq, 0.5, AggFn::kMin},
      {CompareOp::kGt, kNaN, AggFn::kMax},
      {CompareOp::kEq, kNaN, AggFn::kSum},
      {CompareOp::kGe, 0.0, AggFn::kAvg},
      {CompareOp::kNe, 0.5, AggFn::kMax},
      {CompareOp::kLt, 0.75, AggFn::kMin},
  };
  const std::vector<MemberSpec> counts = {
      {CompareOp::kGt, 0.5, AggFn::kCount},
      {CompareOp::kLt, 0.5, AggFn::kCount},
      {CompareOp::kEq, 0.25, AggFn::kCount},
      {CompareOp::kGt, kNaN, AggFn::kCount},
  };
  for (WindowSpec window : {WindowSpec{2.0, 2.0}, WindowSpec{3.0, 1.0},
                            WindowSpec{2.5, 1.0}, WindowSpec{0.5, 0.25}}) {
    SCOPED_TRACE(testing::Message()
                 << "window " << window.size << "/" << window.slide);
    const std::vector<Pass> passes = SeededPasses(9, 12, 31);
    ExpectMembersMatchTheWalk(passes, KeyOf(kX, kSym, window), fields);
    ExpectMembersMatchTheWalk(passes, KeyOf(-1, kSym, window), counts);
    ExpectMembersMatchTheWalk(passes, KeyOf(kX, -1, window), fields);
  }
}

TEST(AggregateFamilyTest, MembersJoinAndLeaveWhileWindowsAreOpen) {
  // Under size 6, slide 1, six windows are open at every pass boundary.
  // Members join after others opened windows and leave with windows open;
  // a leaver's position goes to the last member.
  std::vector<MemberSpec> specs = {
      {CompareOp::kGt, 0.25, AggFn::kSum, 0, 5},
      {CompareOp::kLt, 0.75, AggFn::kAvg, 2},
      {CompareOp::kGt, 0.25, AggFn::kMax, 3, 6},
      {CompareOp::kGe, 0.5, AggFn::kMin, 0, 3},
      {CompareOp::kNe, 1.0, AggFn::kSum, 4},
      {CompareOp::kEq, 0.25, AggFn::kSum, 7},
      {CompareOp::kGt, 0.25, AggFn::kSum, 6},  // The first one, rejoined.
  };
  ExpectMembersMatchTheWalk(SeededPasses(10, 10, 47),
                            KeyOf(kX, kSym, WindowSpec{6.0, 1.0}), specs);
  // Everyone leaves before the end, and the family starts over.
  for (MemberSpec& spec : specs) {
    spec.leave = std::min<size_t>(spec.leave, 8);
  }
  specs.push_back({CompareOp::kLt, 2.0, AggFn::kAvg, 9});
  ExpectMembersMatchTheWalk(SeededPasses(10, 10, 53),
                            KeyOf(kX, kSym, WindowSpec{6.0, 1.0}), specs);
}

TEST(AggregateFamilyTest, ATupleTwiceInTheBatchReachesAMemberTwice) {
  // A union of a node with itself emits each tuple twice in a row, and a
  // select over it passes both.
  std::vector<Pass> passes = SeededPasses(6, 8, 59);
  for (Pass& pass : passes) {
    std::vector<Tuple> twice;
    for (const Tuple& t : pass.batch) {
      twice.push_back(t);
      twice.push_back(t);
    }
    pass.batch = std::move(twice);
  }
  const std::vector<MemberSpec> specs = {
      {CompareOp::kGt, 0.25, AggFn::kSum},
      {CompareOp::kLt, 0.75, AggFn::kAvg},
      {CompareOp::kGt, kNaN, AggFn::kMax, 2},
  };
  ExpectMembersMatchTheWalk(passes, KeyOf(kX, kSym, WindowSpec{2.0, 1.0}),
                            specs);
  ExpectMembersMatchTheWalk(passes, KeyOf(-1, -1, WindowSpec{2.0, 1.0}),
                            {{CompareOp::kGt, 0.25, AggFn::kCount},
                             {CompareOp::kLe, 0.25, AggFn::kCount}});
}

TEST(AggregateFamilyTest, NewGroupsWidenEveryOpenWindow) {
  // Each pass brings four more symbols, so the windows that are open
  // (size 3, slide 1) outgrow 8 and then 16 groups while they hold the
  // earlier groups' cells.
  const SchemaPtr s = ProducerSchema();
  const double xs[] = {0.25, 0.5, 0.75, 1.0};
  std::vector<Pass> passes;
  for (size_t p = 0; p < 7; ++p) {
    Pass pass;
    pass.now = static_cast<double>(p + 1);
    for (size_t i = 0; i < 4 * (p + 1); ++i) {
      std::string sym = "S";
      sym += std::to_string(i);
      pass.batch.emplace_back(
          s,
          std::initializer_list<Value>{Value(sym), Value(xs[(i + p) % 4]),
                                       Value(1.0)},
          static_cast<double>(p) + 0.1 * static_cast<double>(i % 10));
    }
    passes.push_back(std::move(pass));
  }
  const std::vector<MemberSpec> specs = {
      {CompareOp::kGt, 0.25, AggFn::kSum},
      {CompareOp::kLt, 1.0, AggFn::kMax},
      {CompareOp::kEq, 0.5, AggFn::kAvg, 2},
  };
  ExpectMembersMatchTheWalk(passes, KeyOf(kX, kSym, WindowSpec{3.0, 1.0}),
                            specs);
}

TEST(AggregateFamilyTest, StartsThatRoundTogether) {
  // Near ts = 8e14, floor(ts / 0.1) is between 2^52 and 2^53, and a
  // double's spacing (0.125) exceeds the slide, so two j can round to one
  // start and a walk adds to that window twice; such a walk leaves no run
  // for the next tuple, here one at the same timestamp.
  ASSERT_GT(8e15, std::ldexp(1.0, 52));
  ASSERT_EQ(8e15 * 0.1, (8e15 - 1.0) * 0.1);
  const SchemaPtr s = ProducerSchema();
  std::vector<Pass> passes;
  const double xs[] = {0.25, 0.5, 0.75, 1.0};
  for (size_t p = 0; p < 3; ++p) {
    Pass pass;
    pass.now = 8e14 + 0.25 * static_cast<double>(p);
    for (size_t i = 0; i < 6; ++i) {
      pass.batch.emplace_back(
          s,
          std::initializer_list<Value>{Value(i % 2 == 0 ? "A" : "B"),
                                       Value(xs[(i + p) % 4]), Value(1.0)},
          8e14 + 0.125 * static_cast<double>((i / 2 + p) % 3));
    }
    passes.push_back(std::move(pass));
  }
  const std::vector<MemberSpec> specs = {
      {CompareOp::kGt, 0.25, AggFn::kSum},
      {CompareOp::kLt, 1.0, AggFn::kCount},
      {CompareOp::kGe, 0.5, AggFn::kMin},
  };
  ExpectMembersMatchTheWalk(passes, KeyOf(kX, kSym, WindowSpec{0.3, 0.1}),
                            specs);
}

TEST(AggregateFamilyTest, WalkEndsWhereStartsStopStepping) {
  // Past 2^53, j - 1.0 rounds back to j: the walk ends there instead of
  // adding to one window forever.
  const double k = std::floor(1000.0 / 1e-13);
  ASSERT_GT(k, std::ldexp(1.0, 53));
  ASSERT_EQ(k - 1.0, k);
  const SchemaPtr s = ProducerSchema();
  Pass pass;
  pass.now = 1000.0;
  pass.batch.emplace_back(
      s, std::initializer_list<Value>{Value("A"), Value(0.5), Value(1.0)},
      1000.0);
  ExpectMembersMatchTheWalk({pass}, KeyOf(-1, -1, WindowSpec{1e-10, 1e-13}),
                            {{CompareOp::kGt, 0.25, AggFn::kCount},
                             {CompareOp::kLt, 1.0, AggFn::kCount}});
}

TEST(AggregateFamilyTest, DoubleGroupKeysShowTheLastValueEachMemberSaw) {
  // level keys at six significant digits: 1.0000001, 1.0000002 and
  // 1.0000003 are one group ("d:1"). Each member shows the value of the
  // last tuple it added to the group, not the family's last.
  ASSERT_EQ(Value(1.0000001).ToKey(), Value(1.0000003).ToKey());
  const SchemaPtr s = ProducerSchema();
  Pass pass;
  pass.now = 10.0;
  const double levels[] = {1.0000001, 1.0000002, 2.0, 1.0000003, 1.0000002};
  const double xs[] = {0.25, 0.75, 0.5, 0.25, 1.0};
  for (size_t i = 0; i < 5; ++i) {
    pass.batch.emplace_back(
        s,
        std::initializer_list<Value>{Value("A"), Value(xs[i]),
                                     Value(levels[i])},
        static_cast<double>(i));
  }
  const std::vector<MemberSpec> specs = {
      {CompareOp::kLt, 0.5, AggFn::kSum},   // Last saw 1.0000003.
      {CompareOp::kGt, 0.5, AggFn::kSum},   // Last saw 1.0000002.
      {CompareOp::kEq, 0.75, AggFn::kMax},  // Saw only 1.0000002.
      {CompareOp::kGe, 0.0, AggFn::kAvg},   // Saw all.
  };
  ExpectMembersMatchTheWalk({pass}, KeyOf(kX, kLevel, WindowSpec{10.0, 10.0}),
                            specs);
}

// --- Families inside the engine ------------------------------------------

/// An installed query: FN(agg) group-by `group` over `window` over
/// select(field OP operand) over the quotes source, or over the union of
/// the source with itself.
struct AggQuery {
  std::string field;
  CompareOp op;
  Value operand;
  AggFn fn;
  std::string agg;  // Empty for count.
  std::string group;
  WindowSpec window;
  bool union_self = false;

  QueryPlan Plan() const {
    QueryBuilder b;
    int in = b.Source("quotes");
    if (union_self) in = b.Union(in, in);
    return b.Build(b.Aggregate(b.Select(in, field, op, operand), fn, agg,
                               group, window));
  }
};

/// An engine over a quote source, and a second instance of the source
/// that shows each tick's arrivals: every installed query's sink must hold
/// ReferenceAggregate over the arrivals its select passes since it was
/// installed (twice each over the union), advanced at each tick.
class FamilyEngine {
 public:
  FamilyEngine() : engine_(EngineOptions{1e6, 1.0, /*sink_history=*/4096}) {
    EXPECT_TRUE(engine_.RegisterSource(MakeSource()).ok());
  }

  void Install(int id, const AggQuery& query) {
    ASSERT_TRUE(engine_.InstallQuery(id, query.Plan()).ok());
    installed_.emplace(id, Installed{query, {}});
  }

  void Uninstall(int id) {
    Check();
    ASSERT_TRUE(engine_.UninstallQuery(id).ok());
    installed_.erase(id);
  }

  /// Runs one tick and checks every installed query.
  void Tick() {
    engine_.Run(1.0);
    std::vector<Tuple> arrivals;
    reference_->EmitUntil(engine_.now(), &arrivals);
    const Schema& schema = *reference_->schema();
    for (auto& [id, q] : installed_) {
      const int field = schema.FieldIndex(q.query.field);
      for (const Tuple& t : arrivals) {
        if (!EvalCompare(t.value(field), q.query.op, q.query.operand)) {
          continue;
        }
        q.own.tuples.push_back(t);
        if (q.query.union_self) q.own.tuples.push_back(t);
      }
      q.own.advances[q.own.tuples.size()] = engine_.now();
    }
    Check();
  }

  void Check() {
    const SchemaPtr& input = reference_->schema();
    for (const auto& [id, q] : installed_) {
      SCOPED_TRACE(testing::Message() << "query " << id);
      const int agg =
          q.query.agg.empty() ? -1 : input->FieldIndex(q.query.agg);
      const int group =
          q.query.group.empty() ? -1 : input->FieldIndex(q.query.group);
      const std::vector<std::string> expected = ReferenceAggregate(
          q.own, q.query.fn, agg, group, q.query.window,
          AggSchema(input, group));
      const SinkStats* sink = engine_.sink(id);
      ASSERT_NE(sink, nullptr);
      ASSERT_LT(expected.size(), 4096u);
      EXPECT_EQ(sink->tuples, static_cast<int64_t>(expected.size()));
      EXPECT_EQ(Spelled(sink->recent), expected);
      checked_ += expected.size();
    }
  }

  Engine& engine() { return engine_; }
  /// Outputs compared so far.
  size_t checked() const { return checked_; }

 private:
  struct Installed {
    AggQuery query;
    BatchFeed own;
  };

  static StreamSourcePtr MakeSource() {
    return MakeStockQuoteSource("quotes", {"IBM", "AAPL", "MSFT"},
                                /*rate=*/7.0, /*seed=*/20261022);
  }

  Engine engine_;
  StreamSourcePtr reference_ = MakeSource();
  std::map<int, Installed> installed_;
  size_t checked_ = 0;
};

/// Queries whose aggregates fall into a few families: price families
/// (sum, avg, min, max by symbol; sliding and tumbling), a count family,
/// and a family over the union of the source with itself.
std::vector<AggQuery> MixedQueries() {
  const WindowSpec sliding{3.0, 1.0};
  const WindowSpec tumbling{2.0, 2.0};
  return {
      {"price", CompareOp::kGt, Value(100.0), AggFn::kSum, "price", "symbol",
       sliding},
      {"price", CompareOp::kLt, Value(100.5), AggFn::kAvg, "price", "symbol",
       sliding},
      {"volume", CompareOp::kGt, Value(int64_t{5000}), AggFn::kMax, "price",
       "symbol", sliding},
      {"volume", CompareOp::kLt, Value(kNaN), AggFn::kMin, "price", "symbol",
       sliding},
      {"price", CompareOp::kGt, Value(kNaN), AggFn::kMin, "price", "symbol",
       sliding},
      {"volume", CompareOp::kGe, Value(int64_t{2000}), AggFn::kCount, "",
       "symbol", tumbling},
      {"price", CompareOp::kLe, Value(100.0), AggFn::kCount, "", "symbol",
       tumbling},
      {"price", CompareOp::kNe, Value(99.0), AggFn::kSum, "volume", "",
       tumbling},
      {"volume", CompareOp::kLt, Value(int64_t{8000}), AggFn::kAvg, "volume",
       "", tumbling},
      {"price", CompareOp::kGt, Value(99.5), AggFn::kSum, "price", "symbol",
       sliding, /*union_self=*/true},
      {"volume", CompareOp::kEq, Value(int64_t{5000}), AggFn::kCount, "",
       "symbol", sliding, /*union_self=*/true},
      {"volume", CompareOp::kGt, Value(int64_t{3000}), AggFn::kMax, "price",
       "symbol", sliding, /*union_self=*/true},
  };
}

TEST(AggregateFamilyEngineTest, QueriesMatchTheWalkAsTheyComeAndGo) {
  // Queries join and leave between runs while their families' windows
  // are open.
  const std::vector<AggQuery> queries = MixedQueries();
  FamilyEngine f;
  Rng rng(7);
  std::vector<bool> in(queries.size(), false);
  for (int tick = 0; tick < 16; ++tick) {
    for (size_t q = 0; q < queries.size(); ++q) {
      if (!rng.NextBool(tick == 0 ? 0.7 : 0.25)) continue;
      const int id = static_cast<int>(q);
      if (in[q]) {
        f.Uninstall(id);
      } else {
        f.Install(id, queries[q]);
      }
      in[q] = !in[q];
    }
    f.Tick();
    if (HasFailure()) return;
  }
  EXPECT_GT(f.checked(), 1000u);
}

TEST(AggregateFamilyEngineTest, UninstallInEveryOrderThenInstallAgain) {
  // Three members of a family over the source and two of a family over
  // the union of the source with itself: each order of uninstalling the
  // first family's members must keep the rest exact, and the family must
  // work again once they return.
  const std::vector<AggQuery> all = MixedQueries();
  const std::vector<AggQuery> queries = {all[0], all[1], all[2], all[9],
                                         all[11]};
  std::vector<int> order = {0, 1, 2};
  do {
    SCOPED_TRACE(testing::Message() << "order " << order[0] << order[1]
                                    << order[2]);
    FamilyEngine f;
    for (size_t q = 0; q < queries.size(); ++q) {
      f.Install(static_cast<int>(q), queries[q]);
    }
    for (int t = 0; t < 4; ++t) f.Tick();
    for (int q : order) {
      f.Uninstall(q);
      f.Tick();
    }
    for (int q : order) f.Install(10 + q, queries[static_cast<size_t>(q)]);
    for (int t = 0; t < 4; ++t) f.Tick();
    for (size_t q = 0; q < queries.size(); ++q) {
      f.Uninstall(static_cast<int>(q < 3 ? 10 + q : q));
    }
    EXPECT_EQ(f.engine().num_runtime_nodes(), 0);
    EXPECT_GT(f.checked(), 100u);
    if (HasFailure()) return;
  } while (std::next_permutation(order.begin(), order.end()));
}

}  // namespace
}  // namespace streambid::stream
