// Copyright 2026 The streambid Authors
// Declarative continuous-query plans. A plan is a small DAG of operator
// specs; the engine instantiates plans into runtime operators, *sharing*
// any node whose spec-and-inputs subtree is identical to one already
// installed (the operator sharing the paper's auction prices, §II).

#ifndef STREAMBID_STREAM_QUERY_H_
#define STREAMBID_STREAM_QUERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "stream/aggregate_family.h"
#include "stream/operators/map.h"
#include "stream/operators/select.h"
#include "stream/tuple.h"

namespace streambid::stream {

/// Operator kinds available in plans.
enum class OpKind {
  kSource,
  kSelect,
  kProject,
  kMap,
  kAggregate,
  kJoin,
  kUnion,
  kTopK,
  kDistinct,
};

/// Default per-tuple costs by operator kind, in capacity units. Chosen so
/// that realistic source rates produce loads in the 1..10 range of the
/// paper's workload (Table III: operator loads Zipf max 10).
struct DefaultCosts {
  static constexpr double kSelect = 0.01;
  static constexpr double kProject = 0.008;
  static constexpr double kMap = 0.012;
  static constexpr double kAggregate = 0.02;
  static constexpr double kJoin = 0.05;
  static constexpr double kUnion = 0.005;
  static constexpr double kTopK = 0.03;
  static constexpr double kDistinct = 0.015;
};

/// Parameters of one plan node (a tagged union; only the fields of the
/// active kind are meaningful).
struct OpSpec {
  OpKind kind = OpKind::kSelect;

  // kSource.
  std::string source_name;

  // kSelect / kMap / kAggregate field operand.
  std::string field;

  // kSelect.
  CompareOp compare_op = CompareOp::kGt;
  Value operand;

  // kProject.
  std::vector<std::string> fields;

  // kMap.
  MapFn map_fn = MapFn::kMul;
  double map_operand = 1.0;
  std::string output_field;

  // kAggregate.
  AggFn agg_fn = AggFn::kCount;
  std::string group_field;
  WindowSpec window;

  // kJoin.
  std::string left_key;
  std::string right_key;
  VirtualTime join_window = 60.0;

  // kTopK (rank field in `field`, window in `window.size`).
  int top_k = 10;

  // kDistinct uses `field` (key) and `window.size` (dedup horizon).

  /// Per-tuple cost override; 0 uses the kind's default cost.
  double cost_override = 0.0;

  /// Number of inputs this spec requires (2 for join/union, 0 for
  /// source, else 1).
  int expected_inputs() const {
    switch (kind) {
      case OpKind::kSource:
        return 0;
      case OpKind::kJoin:
      case OpKind::kUnion:
        return 2;
      default:
        return 1;
    }
  }

  /// Per-tuple cost: the engine charges it for each tuple the node
  /// processes and the load estimate prices it, both from here.
  /// cost_override when positive, else the kind's DefaultCosts entry (0
  /// for a source).
  double cost_per_tuple() const;

  /// Canonical parameter signature (excludes inputs), e.g.
  /// "select(price>d:100)". Two nodes with equal signatures and equal
  /// input subtrees are shared, so the signature tells apart every two
  /// specs that build different operators (the cost override aside):
  /// every double is spelled so that it reads back exactly, and names
  /// and string operands escape the signature's delimiters with a
  /// backslash.
  std::string Signature() const;

  /// Schema of the tuples this spec's operator emits over inputs of
  /// schemas `inputs` (expected_inputs() of them, checked): the engine
  /// installs a node with it and the load estimate checks plans with it.
  /// Select, union, topk and distinct emit their input schema; project
  /// keeps the named fields in order; map appends `output_field` as a
  /// double; an aggregate emits [group field (if grouped), window_end,
  /// value], both doubles; a join emits the left fields, then the right
  /// ones, each right name that a left field has prefixed with "r_".
  /// Fails with kInvalidArgument on an unknown field, on a field of a
  /// type the operator cannot read, on union inputs whose schemas
  /// differ, and on an output that would repeat a field name (a later
  /// read of that name would see only the first). A type error is an
  /// ordering compare (<, <=, >, >=) between a string and a number, or
  /// a string field under sum, avg, min, max, a topk rank or a map;
  /// count reads no field, and == and != accept any kinds. A source's
  /// schema is its stream's, which only the engine knows: kInternal.
  Result<SchemaPtr> OutputSchema(const std::vector<SchemaPtr>& inputs) const;
};

/// Largest aggregate size/slide accepted by QueryPlan::Validate. A
/// tuple joins size/slide overlapping windows and the aggregate walks
/// each one per tuple, a cost the load estimate does not price.
inline constexpr double kMaxAggregateWindowsPerTuple = 1000.0;

/// A query plan: nodes with input edges (indices into `nodes`, which
/// must point to earlier entries, making the vector a topological
/// order), plus the index of the output (sink) node.
struct QueryPlan {
  struct Node {
    OpSpec spec;
    std::vector<int> inputs;
  };

  std::vector<Node> nodes;
  int output_node = -1;

  /// Structural validation: input arity and ordering, output in range,
  /// at least one source, and every node feeding the output (the engine
  /// installs only the output's subtree, so any other node would be
  /// priced but never run). Also rejects the numeric parameters the
  /// engine cannot run or price: a negative or non-finite cost override,
  /// a window that is not positive and finite (or an aggregate slide
  /// longer than its window or shorter than size /
  /// kMaxAggregateWindowsPerTuple), topk k <= 0, map division by zero,
  /// and a project with no fields.
  Status Validate() const;

  /// Subtree signature of every node, in node order: the node's
  /// OpSpec::Signature followed by its inputs' signatures in angle
  /// brackets. This is the engine's sharing key. Built bottom-up in one
  /// pass; requires inputs that reference earlier nodes (Validate).
  std::vector<std::string> NodeSignatures() const;
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_QUERY_H_
