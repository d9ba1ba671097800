// Copyright 2026 The streambid Authors

#include "stream/query.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace streambid::stream {
namespace {

bool PositiveFinite(double x) { return std::isfinite(x) && x > 0.0; }

// `text`, a signature's spelling of `x`, when it reads back as `x`, else
// the shortest spelling that does. Two specs share a runtime node and an
// auction operator exactly when their signatures match, so no two
// doubles may share a spelling; keeping every exact `text` keeps the
// signatures, and the sharing, of plans whose doubles were already
// spelled exactly.
std::string Exact(std::string text, double x) {
  if (std::strtod(text.c_str(), nullptr) == x) return text;
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), x).ptr);
}

std::string Exact(double x) { return Exact(std::to_string(x), x); }

// `name` with a backslash before each character that separates the parts
// of a signature, the backslash included, so no name or string operand
// can spell a delimiter: a map writing "a" from field "b=c" and one
// writing "a=b" from field "c" must not both sign "map(a=b=c*2.000000)".
// Names without such characters keep their spelling.
std::string Escape(const std::string& name) {
  constexpr std::string_view kDelimiters = "\\()<>;,=!+-*/";
  if (name.find_first_of(kDelimiters) == std::string::npos) return name;
  std::string out;
  for (char c : name) {
    if (kDelimiters.find(c) != std::string_view::npos) out += '\\';
    out += c;
  }
  return out;
}

// Whether the existing field `field` of `schema` holds strings, which the
// numeric operators (an ordering compare against a number, sum, avg,
// min, max, a topk rank, a map) cannot read.
bool IsStringField(const Schema& schema, const std::string& field) {
  return schema.field(schema.FieldIndex(field)).type == ValueType::kString;
}

// `fields` as the output schema of a `kind` node, unless two of them
// share a name: Schema::FieldIndex finds only the first, so the second
// value could never be read.
Result<SchemaPtr> UniqueSchema(const char* kind, std::vector<Field> fields) {
  for (size_t i = 1; i < fields.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (fields[i].name == fields[j].name) {
        return Status::InvalidArgument(std::string(kind) +
                                       ": output repeats field " +
                                       fields[i].name);
      }
    }
  }
  return MakeSchema(std::move(fields));
}

// Value::ToKey of a select operand, with a double spelled exactly and a
// string escaped.
std::string OperandKey(const Value& v) {
  switch (v.type()) {
    case ValueType::kDouble:
      return "d:" + Exact(v.ToString(), v.AsDouble());
    case ValueType::kString:
      return "s:" + Escape(v.AsString());
    default:
      return v.ToKey();
  }
}

// The numeric parameters the operator constructors CHECK, plus finite
// costs and windows, so a hostile plan gets a typed error instead of
// aborting the process or pricing an infinite load.
Status ValidateParams(const OpSpec& spec) {
  if (!std::isfinite(spec.cost_override) || spec.cost_override < 0.0) {
    return Status::InvalidArgument("negative or non-finite cost override");
  }
  switch (spec.kind) {
    case OpKind::kProject:
      // Else "project()" would sign two specs: this one and the one
      // keeping a single field named "".
      if (spec.fields.empty()) {
        return Status::InvalidArgument("project: no fields");
      }
      break;
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

double OpSpec::cost_per_tuple() const {
  if (cost_override > 0.0) return cost_override;
  switch (kind) {
    case OpKind::kSource:
      return 0.0;
    case OpKind::kSelect:
      return DefaultCosts::kSelect;
    case OpKind::kProject:
      return DefaultCosts::kProject;
    case OpKind::kMap:
      return DefaultCosts::kMap;
    case OpKind::kAggregate:
      return DefaultCosts::kAggregate;
    case OpKind::kJoin:
      return DefaultCosts::kJoin;
    case OpKind::kUnion:
      return DefaultCosts::kUnion;
    case OpKind::kTopK:
      return DefaultCosts::kTopK;
    case OpKind::kDistinct:
      return DefaultCosts::kDistinct;
  }
  return 0.0;
}

std::string OpSpec::Signature() const {
  switch (kind) {
    case OpKind::kSource:
      return "source(" + Escape(source_name) + ")";
    case OpKind::kSelect:
      return "select(" + Escape(field) + CompareOpToken(compare_op) +
             OperandKey(operand) + ")";
    case OpKind::kProject: {
      std::string sig = "project(";
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) sig += ',';
        sig += Escape(fields[i]);
      }
      return sig + ")";
    }
    case OpKind::kMap:
      return "map(" + Escape(output_field) + "=" + Escape(field) +
             MapFnToken(map_fn) + Exact(map_operand) + ")";
    case OpKind::kAggregate:
      return std::string("agg(") + AggFnName(agg_fn) + "(" + Escape(field) +
             ")" + (group_field.empty() ? "" : ",by=" + Escape(group_field)) +
             ",w=" + Exact(window.size) + "," + Exact(window.slide) + ")";
    case OpKind::kJoin:
      return "join(" + Escape(left_key) + "==" + Escape(right_key) +
             ",w=" + Exact(join_window) + ")";
    case OpKind::kUnion:
      return "union()";
    case OpKind::kTopK:
      return "topk(" + std::to_string(top_k) + "," + Escape(field) +
             ",w=" + Exact(window.size) + ")";
    case OpKind::kDistinct:
      return "distinct(" + Escape(field) + ",w=" + Exact(window.size) + ")";
  }
  return "?";
}

Result<SchemaPtr> OpSpec::OutputSchema(
    const std::vector<SchemaPtr>& inputs) const {
  STREAMBID_CHECK_EQ(static_cast<int>(inputs.size()), expected_inputs());
  switch (kind) {
    case OpKind::kSource:
      return Status::Internal("a source's schema is its stream's");
    case OpKind::kSelect: {
      if (!inputs[0]->HasField(field)) {
        return Status::InvalidArgument("select: unknown field " + field);
      }
      // == and != across kinds are simply false and true; an ordering
      // compare needs both sides of one kind.
      const bool ordering =
          compare_op != CompareOp::kEq && compare_op != CompareOp::kNe;
      if (ordering &&
          IsStringField(*inputs[0], field) == operand.is_numeric()) {
        return Status::InvalidArgument("select: " + field + " " +
                                       CompareOpToken(compare_op) +
                                       " compares a string with a number");
      }
      return inputs[0];
    }
    case OpKind::kProject: {
      std::vector<Field> out;
      out.reserve(fields.size());
      for (const std::string& f : fields) {
        const int idx = inputs[0]->FieldIndex(f);
        if (idx < 0) {
          return Status::InvalidArgument("project: unknown field " + f);
        }
        out.push_back(inputs[0]->field(idx));
      }
      return UniqueSchema("project", std::move(out));
    }
    case OpKind::kMap: {
      if (!inputs[0]->HasField(field)) {
        return Status::InvalidArgument("map: unknown field " + field);
      }
      if (IsStringField(*inputs[0], field)) {
        return Status::InvalidArgument("map: string field " + field +
                                       " is not numeric");
      }
      std::vector<Field> out = inputs[0]->fields();
      out.push_back({output_field, ValueType::kDouble});
      return UniqueSchema("map", std::move(out));
    }
    case OpKind::kAggregate: {
      if (agg_fn != AggFn::kCount || !field.empty()) {
        if (!inputs[0]->HasField(field)) {
          return Status::InvalidArgument("aggregate: unknown field " +
                                         field);
        }
        // count reads no field, so it counts tuples of any field type.
        if (agg_fn != AggFn::kCount && IsStringField(*inputs[0], field)) {
          return Status::InvalidArgument(std::string("aggregate: ") +
                                         AggFnName(agg_fn) +
                                         " over string field " + field);
        }
      }
      std::vector<Field> out;
      if (!group_field.empty()) {
        const int idx = inputs[0]->FieldIndex(group_field);
        if (idx < 0) {
          return Status::InvalidArgument("aggregate: unknown group field " +
                                         group_field);
        }
        out.push_back(inputs[0]->field(idx));
      }
      out.push_back({"window_end", ValueType::kDouble});
      out.push_back({"value", ValueType::kDouble});
      return UniqueSchema("aggregate", std::move(out));
    }
    case OpKind::kJoin: {
      if (!inputs[0]->HasField(left_key)) {
        return Status::InvalidArgument("join: unknown left key " + left_key);
      }
      if (!inputs[1]->HasField(right_key)) {
        return Status::InvalidArgument("join: unknown right key " +
                                       right_key);
      }
      std::vector<Field> out = inputs[0]->fields();
      for (const Field& f : inputs[1]->fields()) {
        out.push_back(f);
        if (inputs[0]->HasField(f.name)) out.back().name = "r_" + f.name;
      }
      return UniqueSchema("join", std::move(out));
    }
    case OpKind::kUnion:
      if (!(*inputs[0] == *inputs[1])) {
        return Status::InvalidArgument("union: input schemas differ");
      }
      return inputs[0];
    case OpKind::kTopK:
      if (!inputs[0]->HasField(field)) {
        return Status::InvalidArgument("topk: unknown rank field " + field);
      }
      if (IsStringField(*inputs[0], field)) {
        return Status::InvalidArgument("topk: string rank field " + field +
                                       " is not numeric");
      }
      return inputs[0];
    case OpKind::kDistinct:
      if (!inputs[0]->HasField(field)) {
        return Status::InvalidArgument("distinct: unknown key field " +
                                       field);
      }
      return inputs[0];
  }
  return Status::Internal("unknown operator kind");
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

std::vector<std::string> QueryPlan::NodeSignatures() const {
  std::vector<std::string> sigs(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    std::string& sig = sigs[i];
    sig = n.spec.Signature();
    if (n.inputs.empty()) continue;
    size_t size = sig.size() + n.inputs.size() + 1;
    for (int in : n.inputs) size += sigs[static_cast<size_t>(in)].size();
    sig.reserve(size);
    for (size_t k = 0; k < n.inputs.size(); ++k) {
      sig += k == 0 ? '<' : ';';
      sig += sigs[static_cast<size_t>(n.inputs[k])];
    }
    sig += '>';
  }
  return sigs;
}

}  // namespace streambid::stream
