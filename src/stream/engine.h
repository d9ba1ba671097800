// Copyright 2026 The streambid Authors
// The stream execution engine: an Aurora-model DSMS (paper §II) driven in
// virtual time. Installed queries are instantiated into a shared runtime
// graph — any node whose spec-and-inputs subtree matches an existing one
// is reused, so shared operators are processed once regardless of how
// many queries subscribe to them. The engine measures per-operator load
// (cost units per second), which is exactly the c_j the admission
// auction prices.
//
// Tuples move through the graph in trains, in the manner of Aurora's
// train scheduling (Carney et al., VLDB 2003): each tick, one pass runs
// the nodes in topological order, each node appends that tick's outputs
// to its own batch, and each consumer reads its producers' batches in
// place, by reference, so fan-out copies no tuple handle. A consumer
// reads its inputs oldest node first, and its operator gets each input's
// whole batch in one Process call. An input that drives two of its ports
// (a self-join, or a union of a node with itself) is fed one tuple at a
// time instead: each tuple to port 0, then port 1, before the next. The
// node still charges its per-tuple cost once per tuple per port.
//
// A select that compares a numeric field with a numeric constant builds
// no operator: it is a member of its input node's SelectIndex for that
// field (stream/select_index.h). A node routes its final batch (a tap's
// at its turn, an operator's after AdvanceTime) through its select
// indexes before any consumer reads it, appending each tuple to the batch
// of every member it passes. A member charges its per-tuple cost once
// per input tuple at its own turn, as an operator does, so measured
// loads are those of one select call per tuple.
//
// Likewise an aggregate over an indexed select builds no operator: it is
// a member of the AggregateFamily (stream/aggregate_family.h) that the
// select's input keeps for what the aggregate walks (its aggregated
// field, none for count; its group-by field; its window). Once that
// node's indexes routed its batch, the family reads the batch once: each
// tuple that passed a member's select walks its windows and looks its
// group up once per window, and every member it reached adds it to its
// own accumulators, in batch order. At its own turn a member charges its
// cost once per input tuple and emits its closed windows, exactly what
// an aggregate operator over its select would.
//
// A subscription-period boundary (the paper's transition phase) is
// UninstallQuery/InstallQuery between two Run calls. Every Run tick ends
// with a full pass that runs every node and then clears every batch, so
// no tuple is in flight while the network changes, and tuples that
// arrive after the change reach the modified network: queries that
// continue across the boundary lose no results, and a new query sees
// only later arrivals.
//
// Bookkeeping is per query: an installed query owns its sink and the
// list of its distinct runtime nodes, and a node keeps a count of the
// queries subscribed to it, its input nodes (a producer keeps no list
// of consumers), pointers to the sinks it feeds, and its plan spec's
// per-tuple cost. The plan spec decides what each node emits
// (OpSpec::OutputSchema); an operator only processes tuples. Installing
// costs one pass over the plan and builds an operator only for each
// node it creates, once, from the schema it derived; uninstalling visits
// only the query's own nodes and, for each node it orphans, one scan of
// the topological order to unlink it.

#ifndef STREAMBID_STREAM_ENGINE_H_
#define STREAMBID_STREAM_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "stream/query.h"
#include "stream/stream_source.h"

namespace streambid::stream {

/// Engine configuration.
struct EngineOptions {
  /// Capacity in cost units per second of virtual time (same units as
  /// the auction capacities).
  double capacity = 1000.0;
  /// Scheduler step in virtual seconds: sources are polled and windows
  /// advanced once per tick.
  VirtualTime tick = 1.0;
  /// Tuples retained per query sink for inspection.
  int sink_history = 32;
  /// Tuple-level load shedding: when true, each tick enforces the
  /// capacity budget (capacity * tick cost units) by dropping source
  /// tuples that arrive after the budget is exhausted. This is the
  /// classic DSMS overload response the paper's conclusion contrasts
  /// with query-level admission control ("most data stream admission
  /// control (load shedding) algorithms work at the tuple level").
  /// With admission control doing its job, shedding should never fire.
  bool shed_on_overload = false;
};

/// Snapshot of one runtime operator's state and measured load.
struct OperatorLoadInfo {
  std::string signature;   ///< Sharing key (spec + input subtree).
  bool is_source = false;
  double cost_per_tuple = 0.0;  ///< OpSpec::cost_per_tuple (0 for sources).
  int64_t tuples_processed = 0;
  /// Measured load over the last Run(): cost consumed / run duration
  /// (capacity units).
  double measured_load = 0.0;
  /// Number of installed queries whose plans include this node.
  int sharing_degree = 0;
};

/// Per-query output statistics. `recent` holds handles to the newest
/// `sink_history` output tuples, oldest first (empty when the history is
/// 0). Once full, each pass's batch of outputs drops the oldest handles
/// it displaces and appends its newest, which costs O(sink_history)
/// handle moves per pass (the default history is 32) but never copies
/// tuple values or grows the vector past the history.
struct SinkStats {
  int64_t tuples = 0;
  std::vector<Tuple> recent;
};

/// Virtual-time stream engine. Not thread-safe; one engine per
/// simulation.
class Engine {
 public:
  explicit Engine(EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Sources -----------------------------------------------------

  /// Registers an input stream. Fails with kAlreadyExists on duplicate
  /// names.
  Status RegisterSource(StreamSourcePtr source);

  /// Looks up a registered source (nullptr when absent).
  const StreamSource* source(const std::string& name) const;

  // --- Query management ---------------------------------------------

  /// Runs QueryPlan::Validate, then instantiates `plan` for `query_id`,
  /// sharing identical subtrees with already-installed queries; each new
  /// node takes the schema OpSpec::OutputSchema derives over its inputs'
  /// schemas. Errors: kAlreadyExists (id in use), kInvalidArgument (bad
  /// structure, or any OutputSchema error: an unknown field, a field of
  /// a type its operator cannot read, union inputs whose schemas differ,
  /// an output that repeats a field name), kNotFound (unknown source).
  /// On an error found while instantiating, the nodes the install
  /// created are destroyed and the shared ones released again, so a
  /// failed install leaves the engine unchanged. EstimatePlanLoad fails
  /// on the same plans with the same errors.
  Status InstallQuery(int query_id, const QueryPlan& plan);

  /// Removes the query; operators no longer referenced by any query are
  /// destroyed (their state is discarded). Costs O(plan) plus, per
  /// destroyed node, one scan of the runtime nodes.
  Status UninstallQuery(int query_id);

  bool IsInstalled(int query_id) const;
  std::vector<int> InstalledQueries() const;

  // --- Execution ------------------------------------------------------

  /// Advances virtual time by `duration`, pulling sources, scheduling
  /// operators, and closing windows.
  void Run(VirtualTime duration);

  VirtualTime now() const { return now_; }

  // --- Introspection ---------------------------------------------------

  /// Output statistics of an installed query (nullptr when unknown).
  const SinkStats* sink(int query_id) const;

  /// Per-operator loads measured over the last Run().
  std::vector<OperatorLoadInfo> OperatorLoads() const;

  /// Measured load of the node with `signature` (kNotFound if the node
  /// does not exist or nothing ran yet).
  Result<double> MeasuredLoad(const std::string& signature) const;

  /// Total cost consumed in the last Run() divided by duration *
  /// capacity.
  double LastRunUtilization() const;

  /// Cost units consumed during the last Run().
  double LastRunCost() const { return last_run_cost_; }

  /// Source tuples dropped by overload shedding during the last Run()
  /// (always 0 unless options.shed_on_overload).
  int64_t LastRunShedTuples() const { return last_run_shed_; }

  /// Fraction of arriving source tuples shed during the last Run().
  double LastRunShedFraction() const {
    const int64_t total = last_run_shed_ + last_run_ingested_;
    return total > 0 ? static_cast<double>(last_run_shed_) / total : 0.0;
  }

  int num_runtime_nodes() const { return static_cast<int>(topo_.size()); }
  /// Nodes referenced by two or more queries.
  int num_shared_nodes() const;

  const EngineOptions& options() const { return options_; }

  /// Re-provisions the engine's capacity (the autoscaler's actuator;
  /// call between periods, not mid-Run). Affects the shedding budget
  /// and the utilization denominator of subsequent Runs. Precondition
  /// (checked): capacity > 0.
  void SetCapacity(double capacity);

 private:
  struct Node;

  /// An installed query: its sink, and its distinct runtime nodes in
  /// instantiation order (the output node last). A node appears once even
  /// when the plan names it twice.
  struct Query {
    SinkStats sink;
    std::vector<Node*> nodes;
  };

  /// Instantiates plan node `idx` for `query` after its inputs, visiting
  /// each plan node once (`made` memoises its runtime node). Shares every
  /// node whose signature in `sigs` is installed and creates the rest in
  /// post-order, which keeps topo_ topological; a created node takes its
  /// signature out of `sigs`. Equal signatures mean equal specs over
  /// equal inputs (OpSpec::Signature), so a shared node has the plan's
  /// inputs (checked) and the schema the plan expects. A created node
  /// derives its schema with OpSpec::OutputSchema, then builds its
  /// operator once. Fails with kNotFound on an unknown source and with
  /// OutputSchema's error; the nodes made before the failure stay in
  /// query->nodes for Release to undo.
  Status Instantiate(const QueryPlan& plan, int idx,
                     std::vector<std::string>* sigs,
                     std::vector<Node*>* made, Query* query);

  /// Drops `query`'s subscription to each of its nodes, destroying every
  /// node no other query subscribes to. Leaves sinks alone: the caller
  /// detaches the query's sink first, if it was attached.
  void Release(const Query& query);

  /// Hands `node`'s batch for this pass to the sinks it feeds.
  void FeedSinks(const Node& node);

  /// One full pass over the topological order: each node reads its
  /// inputs' batches and advances its windows to `now`, appending to its
  /// own batch; then every batch is cleared. Returns the cost consumed.
  double ProcessPass(VirtualTime now);

  /// Source tap of source `s` (nullptr when no installed plan reads it).
  Node* TapOf(size_t s) const;

  EngineOptions options_;
  std::vector<StreamSourcePtr> sources_;
  std::map<std::string, int> source_index_;

  std::map<std::string, std::unique_ptr<Node>> nodes_;  // By signature.
  std::vector<Node*> topo_;  // Creation order == topological order.
  int64_t next_seq_ = 0;     // Node::seq of the next node created.
  std::map<int, Query> queries_;  // By query id.

  // Scratch buffer reused across ticks: one source's arrivals.
  std::vector<Tuple> arrivals_;

  VirtualTime now_ = 0.0;
  double last_run_cost_ = 0.0;
  VirtualTime last_run_duration_ = 0.0;
  double last_run_capacity_ = 0.0;  // Capacity during the last Run().
  int64_t last_run_shed_ = 0;
  int64_t last_run_ingested_ = 0;
  double shed_probability_ = 0.0;  // Closed-loop shedding control.
  Rng shed_rng_{0x5EED5EEDull};
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_ENGINE_H_
