// Copyright 2026 The streambid Authors

#include "cloud/dsms_center.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace streambid::cloud {

DsmsCenter::DsmsCenter(const DsmsCenterOptions& options,
                       stream::Engine* engine)
    : options_(options), engine_(engine) {
  STREAMBID_CHECK(engine != nullptr);
  STREAMBID_CHECK(service_.HasMechanism(options.mechanism));
  if (options_.autoscale.enabled) {
    autoscaler_.emplace(options_.autoscale, engine_->options().capacity);
  }
  if (options_.metrics != nullptr) {
    telemetry::MetricsRegistry& metrics = *options_.metrics;
    const std::string label =
        "{shard=\"" + std::to_string(options_.shard_index) + "\"}";
    periods_metric_ = metrics.GetCounter("center_periods" + label);
    submissions_metric_ = metrics.GetCounter("center_submissions" + label);
    admitted_metric_ = metrics.GetCounter("center_admitted" + label);
    revenue_metric_ = metrics.GetGauge("center_revenue" + label);
    energy_cost_metric_ = metrics.GetGauge("center_energy_cost" + label);
    shed_fraction_metric_ = metrics.GetGauge("center_shed_fraction" + label);
    capacity_metric_ =
        metrics.GetGauge("center_provisioned_capacity" + label);
    autoscale_decisions_metric_ =
        metrics.GetCounter("center_autoscale_decisions" + label);
  }
}

Result<double> DsmsCenter::Submit(stream::QuerySubmission submission) {
  if (!std::isfinite(submission.bid) || submission.bid < 0.0) {
    return Status::InvalidArgument("negative or non-finite bid");
  }
  // Resubmitting a currently ACTIVE id is a renewal (the query is
  // uninstalled at the period boundary before winners install), but two
  // pending submissions with the same id are ambiguous.
  if (pending_ids_.count(submission.query_id) > 0) {
    return Status::AlreadyExists("query id already pending: " +
                                 std::to_string(submission.query_id));
  }
  // Validate and price the plan now, so a plan the auction cannot
  // price is refused here instead of failing every later period (the
  // queue is only cleared by a completed period).
  STREAMBID_ASSIGN_OR_RETURN(
      stream::PlanLoadEstimate estimate,
      stream::EstimatePlanLoad(*engine_, submission.plan,
                               options_.load_options));
  if (std::all_of(estimate.nodes.begin(), estimate.nodes.end(),
                  [](const stream::NodeLoadEstimate& node) {
                    return node.is_source;
                  })) {
    return Status::InvalidArgument(
        "plan has no billable operators (it is only a source tap)");
  }
  const double load = estimate.total_load;
  if (!std::isfinite(load)) {
    return Status::InvalidArgument("plan load estimate is not finite");
  }
  pending_ids_.insert(submission.query_id);
  pending_.push_back(std::move(submission));
  pending_estimates_.push_back(std::move(estimate));
  return load;
}

double DsmsCenter::ExtractTenant(auction::UserId user) {
  STREAMBID_CHECK(pending_.empty());
  return ledger_.Extract(user);
}

void DsmsCenter::AdoptTenant(auction::UserId user, double charged) {
  if (charged != 0.0) ledger_.Charge(user, charged);
}

Result<PreparedAuction> DsmsCenter::PrepareAuction() {
  PreparedAuction prepared;
  if (!pending_.empty()) {
    STREAMBID_ASSIGN_OR_RETURN(
        stream::AuctionBuild build,
        stream::BuildAuctionInstance(pending_, pending_estimates_));
    prepared.build =
        std::make_unique<stream::AuctionBuild>(std::move(build));
    prepared.has_auction = true;
  }

  // Closed loop: the autoscaler re-provisions the engine for the
  // upcoming period from its observation window and the period's own
  // demand. This runs on the caller's thread against the center's own
  // service (the cluster layer prepares shards serially), so the
  // decision replays byte-identically at any executor pool size.
  if (autoscaler_) {
    telemetry::ScopedSpan span(options_.tracer,
                               telemetry::Phase::kAutoscale,
                               static_cast<int>(history_.size()),
                               options_.shard_index, trace_epoch_);
    STREAMBID_ASSIGN_OR_RETURN(
        AutoscaleDecision decision,
        autoscaler_->Propose(
            service_, options_.mechanism,
            prepared.has_auction ? &prepared.build->instance : nullptr,
            options_.seed));
    engine_->SetCapacity(decision.capacity);
    pending_decision_ = std::move(decision);
    if (autoscale_decisions_metric_ != nullptr) {
      autoscale_decisions_metric_->Increment();
    }
  }
  if (!prepared.has_auction) return prepared;

  prepared.request.instance = &prepared.build->instance;
  prepared.request.capacity = engine_->options().capacity;
  prepared.request.mechanism = options_.mechanism;
  prepared.request.seed = options_.seed;
  // One auction per period: the period number is the replica index, so
  // period k replays identically regardless of earlier periods.
  prepared.request.request_index =
      static_cast<uint32_t>(history_.size());
  prepared.request.options.check_feasibility = true;
  return prepared;
}

Result<PeriodReport> DsmsCenter::CompletePeriod(
    const service::AdmissionResponse* response) {
  PeriodReport report;
  report.period = static_cast<int>(history_.size());
  report.mechanism = options_.mechanism;
  report.submissions = static_cast<int>(pending_.size());
  report.provisioned_capacity = engine_->options().capacity;
  if (pending_decision_) {
    report.autoscale_decision = std::move(pending_decision_);
    pending_decision_.reset();
  }

  const auction::Allocation* alloc = nullptr;
  if (!pending_.empty()) {
    if (response == nullptr) {
      return Status::InvalidArgument(
          "pending submissions but no admission response");
    }
    if (response->allocation.admitted.size() != pending_.size()) {
      return Status::InvalidArgument(
          "admission response sized for " +
          std::to_string(response->allocation.admitted.size()) +
          " queries, " + std::to_string(pending_.size()) + " pending");
    }
    alloc = &response->allocation;
    report.total_payoff = response->metrics.total_payoff;
    report.auction_utilization = response->metrics.utilization;
    report.auction_elapsed_ms = response->elapsed_ms;
  }

  // --- Period boundary: expired queries out, winners in (§II). ---
  for (int qid : active_) {
    STREAMBID_RETURN_IF_ERROR(engine_->UninstallQuery(qid));
  }
  active_.clear();
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!alloc->IsAdmitted(static_cast<auction::QueryId>(i))) continue;
    const stream::QuerySubmission& sub = pending_[i];
    STREAMBID_RETURN_IF_ERROR(
        engine_->InstallQuery(sub.query_id, sub.plan));
    active_.push_back(sub.query_id);
    const double payment =
        alloc->Payment(static_cast<auction::QueryId>(i));
    ledger_.Charge(sub.user, payment);
    report.revenue += payment;
    report.payments[sub.query_id] = payment;
    report.admitted_ids.push_back(sub.query_id);
  }
  report.admitted = static_cast<int>(report.admitted_ids.size());
  pending_.clear();
  pending_estimates_.clear();
  pending_ids_.clear();

  // --- Execute the period. ---
  engine_->Run(options_.period_length);
  report.measured_utilization = engine_->LastRunUtilization();
  report.shed_fraction = engine_->LastRunShedFraction();
  report.energy_cost = options_.autoscale.energy.PeriodCost(
      report.provisioned_capacity,
      report.measured_utilization * report.provisioned_capacity);

  if (autoscaler_) {
    PeriodObservation observation;
    observation.provisioned_capacity = report.provisioned_capacity;
    observation.measured_utilization = report.measured_utilization;
    observation.auction_utilization = report.auction_utilization;
    observation.shed_fraction = report.shed_fraction;
    autoscaler_->Observe(observation);
  }

  // Publish the period's business series. Write-only: nothing below
  // reads these back, so the report (and every future decision) is
  // identical with telemetry on or off.
  if (periods_metric_ != nullptr) {
    periods_metric_->Increment();
    submissions_metric_->Increment(report.submissions);
    admitted_metric_->Increment(report.admitted);
    revenue_metric_->Add(report.revenue);
    energy_cost_metric_->Add(report.energy_cost);
    shed_fraction_metric_->Set(report.shed_fraction);
    capacity_metric_->Set(report.provisioned_capacity);
  }

  history_.push_back(report);
  return report;
}

Result<PeriodReport> DsmsCenter::RunPeriod() {
  STREAMBID_ASSIGN_OR_RETURN(PreparedAuction prepared, PrepareAuction());
  if (!prepared.has_auction) return CompletePeriod(nullptr);
  STREAMBID_ASSIGN_OR_RETURN(service::AdmissionResponse response,
                             service_.Admit(prepared.request));
  return CompletePeriod(&response);
}

}  // namespace streambid::cloud
