// Copyright 2026 The streambid Authors

#include "stream/load_estimator.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace streambid::stream {

Result<PlanLoadEstimate> EstimatePlanLoad(
    const Engine& engine, const QueryPlan& plan,
    const LoadEstimateOptions& options) {
  STREAMBID_RETURN_IF_ERROR(plan.Validate());
  std::vector<std::string> sigs = plan.NodeSignatures();
  // One walk in node order (inputs come first) types each node as
  // InstallQuery would, then rates and prices it.
  std::vector<SchemaPtr> schemas(plan.nodes.size());
  std::vector<SchemaPtr> inputs;
  PlanLoadEstimate est;
  est.nodes.resize(plan.nodes.size());
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const QueryPlan::Node& pn = plan.nodes[i];
    NodeLoadEstimate& ne = est.nodes[i];
    ne.signature = std::move(sigs[i]);
    ne.is_source = pn.spec.kind == OpKind::kSource;
    if (ne.is_source) {
      const StreamSource* src = engine.source(pn.spec.source_name);
      if (src == nullptr) {
        return Status::NotFound("unknown source: " + pn.spec.source_name);
      }
      schemas[i] = src->schema();
      ne.output_rate = src->rate();
      continue;
    }

    double in_rate = 0.0;
    inputs.clear();
    for (int in : pn.inputs) {
      in_rate += est.nodes[static_cast<size_t>(in)].output_rate;
      inputs.push_back(schemas[static_cast<size_t>(in)]);
    }
    STREAMBID_ASSIGN_OR_RETURN(schemas[i], pn.spec.OutputSchema(inputs));

    switch (pn.spec.kind) {
      case OpKind::kSource:  // Handled above.
        break;
      case OpKind::kSelect:
        ne.output_rate = in_rate * options.select_selectivity;
        break;
      case OpKind::kProject:
      case OpKind::kMap:
      case OpKind::kUnion:
        ne.output_rate = in_rate;
        break;
      case OpKind::kAggregate:
        ne.output_rate = pn.spec.window.slide > 0.0
                             ? options.aggregate_groups /
                                   pn.spec.window.slide
                             : 0.0;
        break;
      case OpKind::kTopK:
        // k tuples per tumbling window.
        ne.output_rate = pn.spec.window.size > 0.0
                             ? pn.spec.top_k / pn.spec.window.size
                             : 0.0;
        break;
      case OpKind::kDistinct:
        // At most one tuple per distinct key per window; reuse the
        // aggregate group-count heuristic, capped by the input rate.
        ne.output_rate =
            pn.spec.window.size > 0.0
                ? std::min(in_rate, options.aggregate_groups /
                                        pn.spec.window.size)
                : in_rate;
        break;
      case OpKind::kJoin: {
        const double rl =
            est.nodes[static_cast<size_t>(pn.inputs[0])].output_rate;
        const double rr =
            est.nodes[static_cast<size_t>(pn.inputs[1])].output_rate;
        ne.output_rate =
            rl * rr * pn.spec.join_window * options.join_match_fraction;
        break;
      }
    }
    ne.input_rate = in_rate;
    ne.load = pn.spec.cost_per_tuple() * in_rate;

    if (options.prefer_measured) {
      auto measured = engine.MeasuredLoad(ne.signature);
      if (measured.ok() && *measured > 0.0) ne.load = *measured;
    }
    ne.load = std::max(ne.load, options.min_load);
    est.total_load += ne.load;
  }
  return est;
}

Result<AuctionBuild> BuildAuctionInstance(
    const Engine& engine, const std::vector<QuerySubmission>& submissions,
    const LoadEstimateOptions& options) {
  std::vector<PlanLoadEstimate> estimates;
  estimates.reserve(submissions.size());
  for (const QuerySubmission& sub : submissions) {
    STREAMBID_ASSIGN_OR_RETURN(PlanLoadEstimate est,
                               EstimatePlanLoad(engine, sub.plan, options));
    estimates.push_back(std::move(est));
  }
  return BuildAuctionInstance(submissions, estimates);
}

Result<AuctionBuild> BuildAuctionInstance(
    const std::vector<QuerySubmission>& submissions,
    const std::vector<PlanLoadEstimate>& estimates) {
  STREAMBID_CHECK_EQ(submissions.size(), estimates.size());
  std::vector<auction::OperatorSpec> ops;
  std::vector<auction::QuerySpec> queries;
  std::vector<int> query_ids;
  std::vector<std::string> op_signatures;
  std::map<std::string, auction::OperatorId> op_index;

  for (size_t i = 0; i < submissions.size(); ++i) {
    const QuerySubmission& sub = submissions[i];
    auction::QuerySpec q;
    q.user = sub.user;
    q.bid = sub.bid;
    // Collect DISTINCT non-source nodes of this plan (a plan may
    // reference the same subtree twice, e.g. self-joins).
    std::vector<auction::OperatorId> seen;
    for (const NodeLoadEstimate& ne : estimates[i].nodes) {
      if (ne.is_source) continue;
      auto it = op_index.find(ne.signature);
      auction::OperatorId op_id;
      if (it == op_index.end()) {
        op_id = static_cast<auction::OperatorId>(ops.size());
        ops.push_back({ne.load});
        op_signatures.push_back(ne.signature);
        op_index.emplace(ne.signature, op_id);
      } else {
        op_id = it->second;
      }
      if (std::find(seen.begin(), seen.end(), op_id) == seen.end()) {
        seen.push_back(op_id);
        q.operators.push_back(op_id);
      }
    }
    if (q.operators.empty()) {
      return Status::InvalidArgument(
          "submission " + std::to_string(sub.query_id) +
          " has no billable operators (plan is only a source tap)");
    }
    queries.push_back(std::move(q));
    query_ids.push_back(sub.query_id);
  }

  STREAMBID_ASSIGN_OR_RETURN(
      auction::AuctionInstance instance,
      auction::AuctionInstance::Create(std::move(ops), std::move(queries)));
  AuctionBuild build{std::move(instance), std::move(query_ids),
                     std::move(op_signatures)};
  return build;
}

}  // namespace streambid::stream
