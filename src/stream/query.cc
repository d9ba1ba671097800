// Copyright 2026 The streambid Authors

#include "stream/query.h"

#include <cmath>

#include "common/string_util.h"

namespace streambid::stream {
namespace {

bool PositiveFinite(double x) { return std::isfinite(x) && x > 0.0; }

// The numeric parameters the operator constructors CHECK, plus finite
// costs and windows, so a hostile plan gets a typed error instead of
// aborting the process or pricing an infinite load.
Status ValidateParams(const OpSpec& spec) {
  if (!std::isfinite(spec.cost_override) || spec.cost_override < 0.0) {
    return Status::InvalidArgument("negative or non-finite cost override");
  }
  switch (spec.kind) {
    case OpKind::kMap:
      if (spec.map_fn == MapFn::kDiv && spec.map_operand == 0.0) {
        return Status::InvalidArgument("map: division by zero");
      }
      break;
    case OpKind::kAggregate:
      if (!PositiveFinite(spec.window.size) ||
          !PositiveFinite(spec.window.slide) ||
          spec.window.slide > spec.window.size) {
        return Status::InvalidArgument(
            "aggregate: window size and slide must be positive and "
            "finite, slide at most size");
      }
      if (spec.window.size / spec.window.slide >
          kMaxAggregateWindowsPerTuple) {
        return Status::InvalidArgument(
            "aggregate: size/slide exceeds " +
            std::to_string(static_cast<int>(kMaxAggregateWindowsPerTuple)));
      }
      break;
    case OpKind::kJoin:
      if (!PositiveFinite(spec.join_window)) {
        return Status::InvalidArgument(
            "join: window must be positive and finite");
      }
      break;
    case OpKind::kTopK:
      if (spec.top_k <= 0) {
        return Status::InvalidArgument("topk: k must be positive");
      }
      if (!PositiveFinite(spec.window.size)) {
        return Status::InvalidArgument(
            "topk: window must be positive and finite");
      }
      break;
    case OpKind::kDistinct:
      if (!PositiveFinite(spec.window.size)) {
        return Status::InvalidArgument(
            "distinct: window must be positive and finite");
      }
      break;
    default:
      break;
  }
  return Status::Ok();
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSource:
      return "source";
    case OpKind::kSelect:
      return "select";
    case OpKind::kProject:
      return "project";
    case OpKind::kMap:
      return "map";
    case OpKind::kAggregate:
      return "agg";
    case OpKind::kJoin:
      return "join";
    case OpKind::kUnion:
      return "union";
    case OpKind::kTopK:
      return "topk";
    case OpKind::kDistinct:
      return "distinct";
  }
  return "?";
}

std::string OpSpec::Signature() const {
  switch (kind) {
    case OpKind::kSource:
      return "source(" + source_name + ")";
    case OpKind::kSelect:
      return "select(" + field + CompareOpToken(compare_op) +
             operand.ToKey() + ")";
    case OpKind::kProject:
      return "project(" + Join(fields, ",") + ")";
    case OpKind::kMap:
      return "map(" + output_field + "=" + field + MapFnToken(map_fn) +
             std::to_string(map_operand) + ")";
    case OpKind::kAggregate:
      return std::string("agg(") + AggFnName(agg_fn) + "(" + field + ")" +
             (group_field.empty() ? "" : ",by=" + group_field) +
             ",w=" + std::to_string(window.size) + "," +
             std::to_string(window.slide) + ")";
    case OpKind::kJoin:
      return "join(" + left_key + "==" + right_key +
             ",w=" + std::to_string(join_window) + ")";
    case OpKind::kUnion:
      return "union()";
    case OpKind::kTopK:
      return "topk(" + std::to_string(top_k) + "," + field +
             ",w=" + std::to_string(window.size) + ")";
    case OpKind::kDistinct:
      return "distinct(" + field + ",w=" + std::to_string(window.size) +
             ")";
  }
  return "?";
}

Status QueryPlan::Validate() const {
  if (nodes.empty()) {
    return Status::InvalidArgument("plan has no nodes");
  }
  if (output_node < 0 || output_node >= static_cast<int>(nodes.size())) {
    return Status::InvalidArgument("output node out of range");
  }
  bool has_source = false;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.spec.kind == OpKind::kSource) has_source = true;
    if (static_cast<int>(n.inputs.size()) != n.spec.expected_inputs()) {
      return Status::InvalidArgument(
          "node " + std::to_string(i) + " (" + n.spec.Signature() +
          ") expects " + std::to_string(n.spec.expected_inputs()) +
          " inputs, got " + std::to_string(n.inputs.size()));
    }
    for (int in : n.inputs) {
      if (in < 0 || in >= static_cast<int>(i)) {
        return Status::InvalidArgument(
            "node " + std::to_string(i) +
            " input must reference an earlier node, got " +
            std::to_string(in));
      }
    }
    const Status params = ValidateParams(n.spec);
    if (!params.ok()) {
      return Status::InvalidArgument("node " + std::to_string(i) + ": " +
                                     params.message());
    }
  }
  if (!has_source) {
    return Status::InvalidArgument("plan has no source node");
  }
  // Inputs point backwards, so one backward pass from the output marks
  // every node that feeds it.
  std::vector<bool> feeds_output(nodes.size(), false);
  feeds_output[static_cast<size_t>(output_node)] = true;
  for (int i = output_node; i >= 0; --i) {
    if (!feeds_output[static_cast<size_t>(i)]) continue;
    for (int in : nodes[static_cast<size_t>(i)].inputs) {
      feeds_output[static_cast<size_t>(in)] = true;
    }
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!feeds_output[i]) {
      return Status::InvalidArgument(
          "node " + std::to_string(i) + " (" + nodes[i].spec.Signature() +
          ") does not feed the output node");
    }
  }
  return Status::Ok();
}

std::string QueryPlan::NodeSignature(int node) const {
  const Node& n = nodes[static_cast<size_t>(node)];
  std::string sig = n.spec.Signature();
  if (!n.inputs.empty()) {
    sig += "<";
    for (size_t k = 0; k < n.inputs.size(); ++k) {
      if (k > 0) sig += ";";
      sig += NodeSignature(n.inputs[k]);
    }
    sig += ">";
  }
  return sig;
}

}  // namespace streambid::stream
