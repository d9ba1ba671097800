// Copyright 2026 The streambid Authors

#include "stream/engine.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"
#include "stream/aggregate_family.h"
#include "stream/operators/aggregate.h"
#include "stream/operators/distinct.h"
#include "stream/operators/join.h"
#include "stream/operators/project.h"
#include "stream/operators/topk.h"
#include "stream/operators/union_op.h"
#include "stream/select_index.h"

namespace streambid::stream {

namespace {

// True when the select `spec` over an input of schema `input` is a member
// of its input's SelectIndex: a numeric field compared with a numeric
// operand. Such a select builds no operator.
bool IsIndexedSelect(const OpSpec& spec, const Schema& input) {
  return spec.kind == OpKind::kSelect && spec.operand.is_numeric() &&
         input.field(input.FieldIndex(spec.field)).type !=
             ValueType::kString;
}

// The operator that runs `spec` over inputs of schemas `inputs`, building
// its tuples with `schema`, which is spec.OutputSchema(inputs).
OperatorPtr MakeOperator(const OpSpec& spec,
                         const std::vector<SchemaPtr>& inputs,
                         SchemaPtr schema) {
  switch (spec.kind) {
    case OpKind::kSource:
      break;
    case OpKind::kSelect:
      return OperatorPtr(new SelectOperator(inputs[0], spec.field,
                                            spec.compare_op, spec.operand));
    case OpKind::kProject:
      return OperatorPtr(
          new ProjectOperator(inputs[0], spec.fields, std::move(schema)));
    case OpKind::kMap:
      return OperatorPtr(new MapOperator(inputs[0], spec.field, spec.map_fn,
                                         spec.map_operand,
                                         std::move(schema)));
    case OpKind::kAggregate:
      return OperatorPtr(new AggregateOperator(
          inputs[0], spec.agg_fn, spec.field, spec.group_field, spec.window,
          std::move(schema)));
    case OpKind::kJoin:
      return OperatorPtr(new JoinOperator(inputs[0], inputs[1],
                                          spec.left_key, spec.right_key,
                                          spec.join_window,
                                          std::move(schema)));
    case OpKind::kUnion:
      return OperatorPtr(new UnionOperator(inputs[0], inputs[1]));
    case OpKind::kTopK:
      return OperatorPtr(new TopKOperator(std::move(schema), spec.top_k,
                                          spec.field, spec.window.size));
    case OpKind::kDistinct:
      return OperatorPtr(new DistinctOperator(inputs[0], spec.field,
                                              spec.window.size));
  }
  STREAMBID_CHECK(false);  // A source tap has no operator.
  return nullptr;
}

}  // namespace

/// One runtime graph node: a source tap (source_index >= 0), an indexed
/// select (index != nullptr), a family aggregate (family != nullptr) or an
/// operator instance. Nodes are owned by the signature map; topo_ holds
/// raw pointers in creation (= topological) order.
struct Engine::Node {
  std::string signature;
  OperatorPtr op;  // Null for source taps, indexed selects and families.
  int source_index = -1;   // Valid for source taps.
  SchemaPtr schema;        // Output schema.
  double cost = 0.0;       // OpSpec::cost_per_tuple(); 0 for source taps.
  int64_t seq = 0;         // Creation sequence number (topo_ order).
  // (input, port) for every input port, ordered by the input's seq, then
  // by port: a pass reads each input's batch once, feeding every tuple
  // to each port that input drives before the next tuple.
  std::vector<std::pair<Node*, int>> reads;
  std::vector<SinkStats*> sinks;  // Of the queries whose output this is.
  // The indexed selects that read this node, grouped by the field they
  // read (keyed by its index in `schema`). A pass routes this node's
  // final batch through them before any consumer reads it.
  std::map<int, SelectIndex> indexes;
  // An indexed select's membership: its input's index, which appends to
  // `out` the input tuples the select passes.
  SelectIndex* index = nullptr;
  // The aggregate families of the aggregates over this node's indexed
  // selects, by what they share. A pass hands this node's final batch to
  // them once its indexes routed it.
  std::map<AggregateFamily::Key, AggregateFamily> families;
  // A family aggregate's membership: the family its select's input keeps
  // (`family`), in which `member` reads the select's batch; it emits into
  // `out` at this node's turn.
  AggregateFamily* family = nullptr;
  AggregateFamily::Member* member = nullptr;
  // This pass's outputs (a tap's arrivals, the tuples an indexed select
  // passes), oldest first. Consumers read it in place; ProcessPass
  // clears it after the whole pass with its capacity kept, so a
  // steady-state tick does not reallocate it.
  std::vector<Tuple> out;
  int subscribers = 0;        // Installed queries whose plans include it.
  double run_cost = 0.0;      // Cost consumed during the current Run().
  int64_t processed = 0;
};

Engine::Engine(EngineOptions options) : options_(options) {
  STREAMBID_CHECK_GT(options_.capacity, 0.0);
  STREAMBID_CHECK_GT(options_.tick, 0.0);
}

Engine::~Engine() = default;

void Engine::SetCapacity(double capacity) {
  STREAMBID_CHECK_GT(capacity, 0.0);
  options_.capacity = capacity;
}

Status Engine::RegisterSource(StreamSourcePtr source) {
  STREAMBID_CHECK(source != nullptr);
  const std::string& name = source->name();
  if (source_index_.count(name) > 0) {
    return Status::AlreadyExists("source already registered: " + name);
  }
  source_index_[name] = static_cast<int>(sources_.size());
  sources_.push_back(std::move(source));
  return Status::Ok();
}

const StreamSource* Engine::source(const std::string& name) const {
  auto it = source_index_.find(name);
  return it == source_index_.end() ? nullptr
                                   : sources_[static_cast<size_t>(it->second)]
                                         .get();
}

Status Engine::Instantiate(const QueryPlan& plan, int idx,
                           std::vector<std::string>* sigs,
                           std::vector<Node*>* made, Query* query) {
  Node*& node = (*made)[static_cast<size_t>(idx)];
  if (node != nullptr) return Status::Ok();
  const QueryPlan::Node& pn = plan.nodes[static_cast<size_t>(idx)];
  // (input, port) by port; a created node sorts them into its read order.
  std::vector<std::pair<Node*, int>> reads;
  for (int in : pn.inputs) {
    STREAMBID_RETURN_IF_ERROR(Instantiate(plan, in, sigs, made, query));
    reads.emplace_back((*made)[static_cast<size_t>(in)],
                       static_cast<int>(reads.size()));
  }
  std::string& sig = (*sigs)[static_cast<size_t>(idx)];
  auto it = nodes_.find(sig);
  if (it != nodes_.end()) {
    node = it->second.get();
    // Equal signatures mean equal inputs (OpSpec::Signature); a node
    // shared over other inputs would outlive them.
    STREAMBID_CHECK_EQ(node->reads.size(), reads.size());
    for (const auto& [input, port] : node->reads) {
      STREAMBID_CHECK(input == reads[static_cast<size_t>(port)].first);
    }
  } else {
    auto fresh = std::make_unique<Node>();
    if (pn.spec.kind == OpKind::kSource) {
      auto src = source_index_.find(pn.spec.source_name);
      if (src == source_index_.end()) {
        return Status::NotFound("unknown source: " + pn.spec.source_name);
      }
      fresh->source_index = src->second;
      fresh->schema = sources_[static_cast<size_t>(src->second)]->schema();
    } else {
      std::vector<SchemaPtr> input_schemas;
      for (const auto& [input, port] : reads) {
        input_schemas.push_back(input->schema);
      }
      STREAMBID_ASSIGN_OR_RETURN(fresh->schema,
                                 pn.spec.OutputSchema(input_schemas));
      Node* input = reads[0].first;
      if (IsIndexedSelect(pn.spec, *input_schemas[0])) {
        // Join (or open) the index its input keeps for the field it reads.
        const int field = input->schema->FieldIndex(pn.spec.field);
        fresh->index = &input->indexes.try_emplace(field, field).first->second;
        fresh->index->Add(pn.spec.compare_op, pn.spec.operand.AsDouble(),
                          &fresh->out);
      } else if (pn.spec.kind == OpKind::kAggregate &&
                 input->index != nullptr) {
        // Join (or open) the family its select's input keeps for what it
        // walks, reading the select's batch.
        const auto key = AggregateFamily::Key::Of(
            *input->schema, pn.spec.agg_fn, pn.spec.field,
            pn.spec.group_field, pn.spec.window);
        Node* producer = input->reads[0].first;
        fresh->family = &producer->families.try_emplace(key, key).first->second;
        fresh->member =
            fresh->family->Add(pn.spec.agg_fn, fresh->schema, &input->out);
      } else {
        fresh->op = MakeOperator(pn.spec, input_schemas, fresh->schema);
      }
    }
    fresh->cost = pn.spec.cost_per_tuple();
    fresh->seq = next_seq_++;
    std::sort(reads.begin(), reads.end(),
              [](const std::pair<Node*, int>& a,
                 const std::pair<Node*, int>& b) {
                return a.first->seq != b.first->seq
                           ? a.first->seq < b.first->seq
                           : a.second < b.second;
              });
    fresh->reads = std::move(reads);
    fresh->signature = std::move(sig);
    node = fresh.get();
    topo_.push_back(node);
    nodes_.emplace(node->signature, std::move(fresh));
  }
  // Two plan nodes with one signature (a source named twice) are one
  // node, and the query counts once toward its sharing degree.
  if (std::find(query->nodes.begin(), query->nodes.end(), node) ==
      query->nodes.end()) {
    ++node->subscribers;
    query->nodes.push_back(node);
  }
  return Status::Ok();
}

Status Engine::InstallQuery(int query_id, const QueryPlan& plan) {
  if (queries_.count(query_id) > 0) {
    return Status::AlreadyExists("query id already installed: " +
                                 std::to_string(query_id));
  }
  STREAMBID_RETURN_IF_ERROR(plan.Validate());

  Query& query = queries_[query_id];
  query.nodes.reserve(plan.nodes.size());
  std::vector<std::string> sigs = plan.NodeSignatures();
  std::vector<Node*> made(plan.nodes.size(), nullptr);
  const Status status =
      Instantiate(plan, plan.output_node, &sigs, &made, &query);
  if (!status.ok()) {
    // Undo the partial install: the sink is not attached yet.
    Release(query);
    queries_.erase(query_id);
    return status;
  }
  query.nodes.back()->sinks.push_back(&query.sink);  // The output node.
  return Status::Ok();
}

Status Engine::UninstallQuery(int query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound("query not installed: " +
                            std::to_string(query_id));
  }
  const Query& query = it->second;
  std::vector<SinkStats*>& sinks = query.nodes.back()->sinks;
  sinks.erase(std::find(sinks.begin(), sinks.end(), &query.sink));
  Release(query);
  queries_.erase(it);
  return Status::Ok();
}

void Engine::Release(const Query& query) {
  // Every node follows its inputs in query.nodes, so walking it backwards
  // destroys an orphan's consumers before the orphan itself. A consumer
  // holds its inputs, and a producer keeps no edge list but the indexes
  // of the selects that read it and the families of the aggregates over
  // those, so destroying a node unlinks only an indexed select from its
  // input's index, or a family aggregate from its family (dropping the
  // index or family with its last member). An orphan's index and family
  // members read it through its consumers, so by its turn they have left.
  for (auto n = query.nodes.rbegin(); n != query.nodes.rend(); ++n) {
    Node* node = *n;
    if (--node->subscribers > 0) continue;
    STREAMBID_CHECK(node->indexes.empty() && node->families.empty());
    if (node->index != nullptr) {
      node->index->Remove(&node->out);
      if (node->index->empty()) {
        node->reads[0].first->indexes.erase(node->index->field());
      }
    }
    if (node->family != nullptr) {
      node->family->Remove(node->member);
      if (node->family->empty()) {
        const AggregateFamily::Key key = node->family->key();
        node->reads[0].first->reads[0].first->families.erase(key);
      }
    }
    topo_.erase(std::find(topo_.begin(), topo_.end(), node));
    nodes_.erase(nodes_.find(node->signature));
  }
}

bool Engine::IsInstalled(int query_id) const {
  return queries_.count(query_id) > 0;
}

std::vector<int> Engine::InstalledQueries() const {
  std::vector<int> out;
  out.reserve(queries_.size());
  for (const auto& [id, query] : queries_) out.push_back(id);
  return out;
}

Engine::Node* Engine::TapOf(size_t s) const {
  // Source signatures are "source(<name>)", so a source has at most one
  // tap.
  for (Node* node : topo_) {
    if (node->source_index == static_cast<int>(s)) return node;
  }
  return nullptr;
}

void Engine::FeedSinks(const Node& node) {
  const std::vector<Tuple>& batch = node.out;
  if (batch.empty()) return;
  const size_t history =
      static_cast<size_t>(std::max(options_.sink_history, 0));
  for (SinkStats* sink : node.sinks) {
    sink->tuples += static_cast<int64_t>(batch.size());
    if (history == 0) continue;
    // Keep the newest `history` handles, oldest first: drop the oldest
    // kept ones that the batch displaces, then append the batch's
    // newest. The vector never grows past `history`.
    std::vector<Tuple>& recent = sink->recent;
    const size_t take = std::min(batch.size(), history);
    const size_t keep = std::min(recent.size(), history - take);
    recent.erase(recent.begin(),
                 recent.begin() + static_cast<std::ptrdiff_t>(
                                      recent.size() - keep));
    recent.insert(recent.end(),
                  batch.end() - static_cast<std::ptrdiff_t>(take),
                  batch.end());
  }
}

double Engine::ProcessPass(VirtualTime now) {
  // Edges always point from earlier to later topo_ entries, so one
  // ordered pass runs everything, including window emissions. A node
  // appends to its own batch while it reads earlier nodes' batches, and
  // its select indexes append to its members' batches, which are read
  // only at or after the members' turn (its families, at their members'
  // turns, emit what those batches brought). Every batch is cleared only
  // after the pass, so each batch stays valid for every consumer that
  // reads it.
  double pass_cost = 0.0;
  for (Node* node : topo_) {
    if (node->source_index >= 0) {
      // Source tap: its batch is this tick's arrivals.
      node->processed += static_cast<int64_t>(node->out.size());
    } else if (node->index != nullptr || node->family != nullptr) {
      // Indexed select: its input's index already routed the tuples it
      // passes into its batch. Family aggregate: its family already added
      // its select's batch; it emits its closed windows now. Either
      // charges its cost per input tuple, as an operator does, with the
      // same additions in the same order.
      const size_t inputs = node->reads[0].first->out.size();
      for (size_t i = 0; i < inputs; ++i) {
        node->run_cost += node->cost;
        pass_cost += node->cost;
      }
      node->processed += static_cast<int64_t>(inputs);
      if (node->family != nullptr) {
        node->family->Emit(node->member, now, &node->out);
      }
    } else {
      const auto& reads = node->reads;
      for (size_t r = 0; r < reads.size();) {
        // reads[r, end) are the ports one input drives.
        const Node* input = reads[r].first;
        size_t end = r + 1;
        while (end < reads.size() && reads[end].first == input) ++end;
        const std::span<const Tuple> batch(input->out);
        if (end == r + 1) {
          if (!batch.empty()) {
            node->op->Process(reads[r].second, batch, &node->out);
          }
        } else {
          // An input that drives two ports: each tuple reaches port 0,
          // then port 1, before the next tuple.
          for (const Tuple& tuple : batch) {
            for (size_t p = r; p < end; ++p) {
              node->op->Process(reads[p].second, tuple, &node->out);
            }
          }
        }
        // One charge per tuple per port, added one at a time, so run_cost
        // and pass_cost see the additions a per-tuple call would make.
        const size_t calls = batch.size() * (end - r);
        for (size_t i = 0; i < calls; ++i) {
          node->run_cost += node->cost;
          pass_cost += node->cost;
        }
        node->processed += static_cast<int64_t>(calls);
        r = end;
      }
      node->op->AdvanceTime(now, &node->out);
    }
    // The batch is final: hand it to the indexed selects that read it,
    // then to the families of the aggregates over those.
    for (auto& [field, index] : node->indexes) index.Route(node->out);
    for (auto& [key, family] : node->families) family.Accumulate(node->out);
    FeedSinks(*node);
  }
  for (Node* node : topo_) node->out.clear();
  return pass_cost;
}

void Engine::Run(VirtualTime duration) {
  STREAMBID_CHECK_GE(duration, 0.0);
  for (Node* node : topo_) node->run_cost = 0.0;
  last_run_duration_ = duration;
  // Snapshot: a later SetCapacity (autoscaling) must not retroactively
  // rescale this run's utilization.
  last_run_capacity_ = options_.capacity;
  last_run_shed_ = 0;
  last_run_ingested_ = 0;
  shed_probability_ = 0.0;
  const double tick_budget = options_.capacity * options_.tick;
  const VirtualTime end = now_ + duration;
  while (now_ < end) {
    now_ = std::min(now_ + options_.tick, end);
    for (size_t s = 0; s < sources_.size(); ++s) {
      arrivals_.clear();
      sources_[s]->EmitUntil(now_, &arrivals_);
      if (arrivals_.empty()) continue;
      Node* tap = TapOf(s);
      if (tap == nullptr) continue;
      for (Tuple& t : arrivals_) {
        // Closed-loop tuple shedding (Aurora-style random drops): the
        // drop probability tracks last tick's overload ratio.
        if (options_.shed_on_overload && shed_probability_ > 0.0 &&
            shed_rng_.NextBool(shed_probability_)) {
          ++last_run_shed_;
          continue;
        }
        tap->out.push_back(std::move(t));
        ++last_run_ingested_;
      }
    }
    const double tick_cost = ProcessPass(now_);
    if (options_.shed_on_overload && tick_budget > 0.0) {
      // The measured cost already reflects the current drop rate;
      // de-bias it to estimate the offered demand, then aim the drop
      // probability so post-shedding cost equals the budget.
      const double kept = 1.0 - shed_probability_;
      const double offered = kept > 1e-6 ? tick_cost / kept : tick_cost;
      const double target =
          offered > tick_budget ? 1.0 - tick_budget / offered : 0.0;
      // Fast-attack, fast-release controller.
      shed_probability_ = 0.5 * shed_probability_ + 0.5 * target;
    }
  }
  last_run_cost_ = 0.0;
  for (Node* node : topo_) last_run_cost_ += node->run_cost;
}

const SinkStats* Engine::sink(int query_id) const {
  auto it = queries_.find(query_id);
  return it == queries_.end() ? nullptr : &it->second.sink;
}

std::vector<OperatorLoadInfo> Engine::OperatorLoads() const {
  std::vector<OperatorLoadInfo> out;
  out.reserve(topo_.size());
  for (const Node* node : topo_) {
    OperatorLoadInfo info;
    info.signature = node->signature;
    info.is_source = node->source_index >= 0;
    info.cost_per_tuple = node->cost;
    info.tuples_processed = node->processed;
    info.measured_load = last_run_duration_ > 0.0
                             ? node->run_cost / last_run_duration_
                             : 0.0;
    info.sharing_degree = node->subscribers;
    out.push_back(std::move(info));
  }
  return out;
}

Result<double> Engine::MeasuredLoad(const std::string& signature) const {
  auto it = nodes_.find(signature);
  if (it == nodes_.end()) {
    return Status::NotFound("no such operator: " + signature);
  }
  if (last_run_duration_ <= 0.0) {
    return Status::FailedPrecondition("engine has not run yet");
  }
  return it->second->run_cost / last_run_duration_;
}

double Engine::LastRunUtilization() const {
  if (last_run_duration_ <= 0.0 || last_run_capacity_ <= 0.0) return 0.0;
  return last_run_cost_ / (last_run_duration_ * last_run_capacity_);
}

int Engine::num_shared_nodes() const {
  int n = 0;
  for (const Node* node : topo_) {
    if (node->subscribers > 1) ++n;
  }
  return n;
}

}  // namespace streambid::stream
