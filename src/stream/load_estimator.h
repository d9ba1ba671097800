// Copyright 2026 The streambid Authors
// Operator load estimation: the bridge between the stream engine and the
// admission auction. The paper assumes "each operator o_j has an
// associated load c_j ... and this load can at least be reasonably
// approximated by the system" (§II). We provide both an analytic
// estimate from source rates and per-operator cost/selectivity models
// (available before a query ever runs) and measured loads from the
// engine (available after execution), preferring measurement when the
// operator is already installed.

#ifndef STREAMBID_STREAM_LOAD_ESTIMATOR_H_
#define STREAMBID_STREAM_LOAD_ESTIMATOR_H_

#include <string>
#include <vector>

#include "auction/instance.h"
#include "common/status.h"
#include "stream/engine.h"
#include "stream/query.h"

namespace streambid::stream {

/// Tunables of the analytic load model.
struct LoadEstimateOptions {
  /// Assumed fraction of tuples passing a selection.
  double select_selectivity = 0.5;
  /// Assumed fraction of key pairs matching in a join window.
  double join_match_fraction = 0.01;
  /// Assumed distinct groups emitted per aggregate window.
  double aggregate_groups = 8.0;
  /// Prefer engine-measured loads for already-installed operators.
  bool prefer_measured = true;
  /// Loads are clamped to at least this (the auction requires positive
  /// loads).
  double min_load = 1e-6;
};

/// Analytic estimate for one plan node.
struct NodeLoadEstimate {
  std::string signature;  ///< Subtree signature (the sharing key).
  bool is_source = false;
  double input_rate = 0.0;   ///< Tuples/second entering the node.
  double output_rate = 0.0;  ///< Tuples/second leaving the node.
  double load = 0.0;         ///< Capacity units (cost * input rate).
};

/// Per-plan estimate, in plan-node order.
struct PlanLoadEstimate {
  std::vector<NodeLoadEstimate> nodes;
  /// Sum of operator loads (the query's total load CT if nothing were
  /// shared).
  double total_load = 0.0;
};

/// Estimates rates and loads for `plan` against the engine's registered
/// sources. Runs QueryPlan::Validate and QueryPlan::NodeSignatures, then
/// one walk over the nodes that takes each source's schema from the
/// engine, derives every other node's with OpSpec::OutputSchema, and
/// prices it; it builds no operator. So it fails where InstallQuery
/// would, with the same status: on a plan that does not validate
/// (kInvalidArgument), an unknown source (kNotFound), or an
/// OutputSchema error (kInvalidArgument).
Result<PlanLoadEstimate> EstimatePlanLoad(const Engine& engine,
                                          const QueryPlan& plan,
                                          const LoadEstimateOptions& options);

/// One query submitted to the admission auction.
struct QuerySubmission {
  int query_id = 0;  ///< Caller-assigned id (engine install id).
  auction::UserId user = 0;
  double bid = 0.0;
  QueryPlan plan;
};

/// The auction instance derived from a batch of submissions, plus the
/// mapping back to engine entities.
struct AuctionBuild {
  auction::AuctionInstance instance;
  /// instance QueryId (dense index) -> submission query_id.
  std::vector<int> query_ids;
  /// instance OperatorId -> runtime node signature.
  std::vector<std::string> op_signatures;
};

/// Builds the §II abstract auction view of `submissions`: operators are
/// deduplicated by subtree signature (exactly the engine's sharing
/// rule), loads come from the analytic model or engine measurement, and
/// source taps are excluded (stream ingestion is provider overhead, as
/// in the paper's Example 1 where operators begin at the first box).
/// Estimates every plan, then builds as the overload below does.
Result<AuctionBuild> BuildAuctionInstance(
    const Engine& engine, const std::vector<QuerySubmission>& submissions,
    const LoadEstimateOptions& options);

/// Builds the auction view from estimates already taken: `estimates[i]`
/// is EstimatePlanLoad of `submissions[i].plan` (the sizes must match,
/// checked). Fails when a plan has no billable operator or the instance
/// does not validate.
Result<AuctionBuild> BuildAuctionInstance(
    const std::vector<QuerySubmission>& submissions,
    const std::vector<PlanLoadEstimate>& estimates);

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_LOAD_ESTIMATOR_H_
