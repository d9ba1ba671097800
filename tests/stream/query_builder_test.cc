// Copyright 2026 The streambid Authors

#include "stream/query_builder.h"

#include <gtest/gtest.h>

#include <limits>

namespace streambid::stream {
namespace {

TEST(QueryBuilderTest, LinearChainValidates) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(100.0));
  const int proj = b.Project(sel, {"symbol"});
  const QueryPlan plan = b.Build(proj);
  EXPECT_TRUE(plan.Validate().ok());
  EXPECT_EQ(plan.nodes.size(), 3u);
  EXPECT_EQ(plan.output_node, proj);
}

TEST(QueryBuilderTest, JoinPlanValidates) {
  QueryBuilder b;
  const int quotes = b.Source("quotes");
  const int news = b.Source("news");
  const int j = b.Join(quotes, news, "symbol", "company", 60.0);
  const QueryPlan plan = b.Build(j);
  EXPECT_TRUE(plan.Validate().ok());
  EXPECT_EQ(plan.nodes[static_cast<size_t>(j)].inputs.size(), 2u);
}

TEST(QueryBuilderTest, BuilderResetsAfterBuild) {
  QueryBuilder b;
  const int s1 = b.Source("a");
  const QueryPlan p1 = b.Build(s1);
  const int s2 = b.Source("b");
  const QueryPlan p2 = b.Build(s2);
  EXPECT_EQ(p1.nodes.size(), 1u);
  EXPECT_EQ(p2.nodes.size(), 1u);
  EXPECT_EQ(p2.nodes[0].spec.source_name, "b");
}

TEST(QueryBuilderTest, ValidateRejectsNodesThatDoNotFeedTheOutput) {
  // The engine installs only the output's subtree, so an unused node
  // would be priced by the load estimate but never run.
  QueryBuilder b;
  const int src = b.Source("quotes");
  b.Aggregate(src, AggFn::kAvg, "price", "symbol", {60.0, 30.0});
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(100.0));
  EXPECT_EQ(b.Build(sel).Validate().code(), StatusCode::kInvalidArgument);

  // A node after the output feeds nothing either.
  const int quotes = b.Source("quotes");
  const int out = b.Select(quotes, "price", CompareOp::kGt, Value(1.0));
  b.Project(out, {"symbol"});
  EXPECT_EQ(b.Build(out).Validate().code(), StatusCode::kInvalidArgument);

  // A shared input feeding the output along two paths is live.
  const int tap = b.Source("quotes");
  const int hi = b.Select(tap, "price", CompareOp::kGt, Value(100.0));
  const int lo = b.Select(tap, "price", CompareOp::kLt, Value(50.0));
  EXPECT_TRUE(b.Build(b.Union(hi, lo)).Validate().ok());
}

TEST(QueryBuilderTest, CostOverrideAppliesToLastNode) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(1.0));
  b.SetCostOverride(0.25);
  const QueryPlan plan = b.Build(sel);
  EXPECT_DOUBLE_EQ(plan.nodes[static_cast<size_t>(sel)].spec.cost_override,
                   0.25);
}

TEST(QueryPlanTest, SignatureStableAndStructural) {
  QueryBuilder b1;
  int s = b1.Source("quotes");
  int sel = b1.Select(s, "price", CompareOp::kGt, Value(100.0));
  const QueryPlan p1 = b1.Build(sel);

  QueryBuilder b2;
  s = b2.Source("quotes");
  sel = b2.Select(s, "price", CompareOp::kGt, Value(100.0));
  const QueryPlan p2 = b2.Build(sel);

  EXPECT_EQ(p1.NodeSignatures()[p1.output_node],
            p2.NodeSignatures()[p2.output_node]);

  QueryBuilder b3;
  s = b3.Source("quotes");
  sel = b3.Select(s, "price", CompareOp::kGt, Value(200.0));  // Differs.
  const QueryPlan p3 = b3.Build(sel);
  EXPECT_NE(p1.NodeSignatures()[p1.output_node],
            p3.NodeSignatures()[p3.output_node]);
}

TEST(QueryPlanTest, ValidateCatchesBadArity) {
  QueryPlan plan;
  QueryPlan::Node join;
  join.spec.kind = OpKind::kJoin;
  join.inputs = {0};  // Joins need two inputs.
  plan.nodes.push_back(join);
  plan.output_node = 0;
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(QueryPlanTest, ValidateCatchesForwardReference) {
  QueryPlan plan;
  QueryPlan::Node src;
  src.spec.kind = OpKind::kSource;
  src.spec.source_name = "s";
  QueryPlan::Node sel;
  sel.spec.kind = OpKind::kSelect;
  sel.spec.field = "x";
  sel.inputs = {1};  // Self/forward reference.
  plan.nodes.push_back(src);
  plan.nodes.push_back(sel);
  plan.output_node = 1;
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(QueryPlanTest, ValidateRequiresSource) {
  QueryPlan plan;
  plan.output_node = 0;
  EXPECT_FALSE(plan.Validate().ok());  // Empty.
}

TEST(QueryPlanTest, ValidateRejectsBadNumericParams) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto aggregate_plan = [] {
    QueryBuilder b;
    const int src = b.Source("quotes");
    return b.Build(
        b.Aggregate(src, AggFn::kAvg, "price", "symbol", {60.0, 30.0}));
  };
  EXPECT_TRUE(aggregate_plan().Validate().ok());
  for (const double bad : {inf, -inf, nan, -1.0}) {
    QueryPlan plan = aggregate_plan();
    plan.nodes.back().spec.cost_override = bad;
    EXPECT_EQ(plan.Validate().code(), StatusCode::kInvalidArgument) << bad;
  }
  for (const double bad : {inf, nan, 0.0, -5.0}) {
    QueryPlan plan = aggregate_plan();
    plan.nodes.back().spec.window.size = bad;
    EXPECT_EQ(plan.Validate().code(), StatusCode::kInvalidArgument) << bad;
  }
  QueryPlan long_slide = aggregate_plan();
  long_slide.nodes.back().spec.window.slide = 90.0;
  EXPECT_EQ(long_slide.Validate().code(), StatusCode::kInvalidArgument);

  QueryBuilder b;
  const int quotes = b.Source("quotes");
  const int news = b.Source("news");
  EXPECT_EQ(b.Build(b.Join(quotes, news, "symbol", "company", inf))
                .Validate()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(b.Build(b.TopK(b.Source("quotes"), 3, "price", 0.0))
                .Validate()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(b.Build(b.Distinct(b.Source("quotes"), "symbol", nan))
                .Validate()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(b.Build(b.Map(b.Source("quotes"), "price", MapFn::kDiv, 0.0,
                          "p"))
                .Validate()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryPlanTest, ValidateBoundsAggregateWindowsPerTuple) {
  auto aggregate_plan = [](double size, double slide) {
    QueryBuilder b;
    const int src = b.Source("quotes");
    return b.Build(
        b.Aggregate(src, AggFn::kAvg, "price", "symbol", {size, slide}));
  };
  EXPECT_EQ(kMaxAggregateWindowsPerTuple, 1000.0);
  EXPECT_TRUE(aggregate_plan(1000.0, 1.0).Validate().ok());
  EXPECT_EQ(aggregate_plan(1001.0, 1.0).Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(aggregate_plan(1e6, 1e-3).Validate().code(),
            StatusCode::kInvalidArgument);
}

TEST(OpSpecTest, SignaturesDistinguishKinds) {
  OpSpec select;
  select.kind = OpKind::kSelect;
  select.field = "x";
  select.operand = Value(1.0);
  OpSpec agg;
  agg.kind = OpKind::kAggregate;
  agg.field = "x";
  EXPECT_NE(select.Signature(), agg.Signature());
  EXPECT_NE(select.Signature().find("select"), std::string::npos);
}

TEST(OpSpecTest, SignaturesEscapeDelimitersInNames) {
  auto map = [](const std::string& out, const std::string& in) {
    OpSpec spec;
    spec.kind = OpKind::kMap;
    spec.output_field = out;
    spec.field = in;
    spec.map_fn = MapFn::kMul;
    spec.map_operand = 2.0;
    return spec.Signature();
  };
  EXPECT_EQ(map("a", "b"), "map(a=b*2.000000)");  // Kept as it was.
  EXPECT_EQ(map("a=b", "c"), "map(a\\=b=c*2.000000)");
  EXPECT_EQ(map("a", "b=c"), "map(a=b\\=c*2.000000)");
  EXPECT_EQ(map("a\\", "b"), "map(a\\\\=b*2.000000)");

  OpSpec select;
  select.kind = OpKind::kSelect;
  select.field = "symbol";
  select.compare_op = CompareOp::kEq;
  select.operand = Value("IBM)");
  EXPECT_EQ(select.Signature(), "select(symbol==s:IBM\\))");
  select.operand = Value(int64_t{-3});
  EXPECT_EQ(select.Signature(), "select(symbol==i:-3)");

  OpSpec project;
  project.kind = OpKind::kProject;
  project.fields = {"a,b"};
  const std::string one = project.Signature();
  project.fields = {"a", "b"};
  EXPECT_EQ(project.Signature(), "project(a,b)");
  EXPECT_NE(one, project.Signature());

  // With no fields a project would sign as the one keeping field "".
  QueryBuilder b;
  EXPECT_EQ(b.Build(b.Project(b.Source("quotes"), {})).Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(b.Build(b.Project(b.Source("quotes"), {""})).Validate().ok());
}

}  // namespace
}  // namespace streambid::stream
