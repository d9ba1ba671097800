// Copyright 2026 The streambid Authors

#include "gate/stream_ingress.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "service/gate_status.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace streambid::gate {

StreamIngress::StreamIngress(cluster::ClusterCenter* center,
                             const IngressOptions& options)
    : center_(center), options_(options), probe_(options.probe) {
  STREAMBID_CHECK(center != nullptr);
  STREAMBID_CHECK_GE(options.tenant_classes, 1);
  STREAMBID_CHECK_GE(options.tickets_per_class, 1);
  STREAMBID_CHECK(std::isfinite(options.acquire_timeout_ms) &&
                  options.acquire_timeout_ms >= 0.0);
  pools_.reserve(static_cast<size_t>(options.tenant_classes));
  for (int k = 0; k < options.tenant_classes; ++k) {
    pools_.push_back(std::make_unique<TicketHolder>(
        center->options().mechanism + "/class" + std::to_string(k),
        options.tickets_per_class));
  }
  if (options_.metrics != nullptr) {
    telemetry::MetricsRegistry& metrics = *options_.metrics;
    offered_metric_ = metrics.GetCounter("gate_offered");
    admitted_metric_ = metrics.GetCounter("gate_admitted");
    shed_metric_ = metrics.GetCounter("gate_shed");
    dropped_metric_ = metrics.GetCounter("gate_dropped");
    buffered_metric_ = metrics.GetGauge("gate_buffered");
    wait_p99_metric_ = metrics.GetGauge("gate_wait_p99_ms");
    probe_concurrency_metric_ = metrics.GetGauge("gate_probe_concurrency");
  }
}

int StreamIngress::Classify(
    const stream::QuerySubmission& submission) const {
  const int classes = static_cast<int>(pools_.size());
  const int k = submission.user % classes;
  // User ids are signed; a negative remainder wraps into range.
  return k < 0 ? k + classes : k;
}

Status StreamIngress::Offer(stream::QuerySubmission submission) {
  const int k = Classify(submission);
  TicketHolder& pool = *pools_[static_cast<size_t>(k)];
  const Status ticket = pool.Acquire(options_.acquire_timeout_ms);
  if (offered_metric_ != nullptr) offered_metric_->Increment();
  if (!ticket.ok()) {
    if (shed_metric_ != nullptr) shed_metric_->Increment();
    MutexLock lock(mutex_);
    ++period_offered_;
    ++period_shed_;
    return service::ShedRejection(pool.name(),
                                  options_.retry_after_periods);
  }
  MutexLock lock(mutex_);
  ++period_offered_;
  buffer_.push_back(Buffered{std::move(submission), k});
  buffered_high_water_ =
      std::max(buffered_high_water_, static_cast<int>(buffer_.size()));
  if (buffered_metric_ != nullptr) {
    buffered_metric_->Set(static_cast<double>(buffer_.size()));
  }
  return Status::Ok();
}

Result<GatedPeriodReport> StreamIngress::ClosePeriod() {
  // The drain span is recorded manually (not via ScopedSpan) because
  // its logical key — the cluster period number and epoch — is only
  // known after RunPeriod returns.
  telemetry::PeriodTracer* tracer = options_.tracer;
  const double drain_start_ms = tracer != nullptr ? tracer->NowMs() : 0.0;

  // Atomically steal the open period's batch and counters; Offers that
  // land after the swap ride the next period. The drain buffer
  // ping-pongs with buffer_ (both retain their high-water capacity
  // across periods), so a steady-state drain re-allocates neither side
  // — the per-submission gate path stays allocation-free.
  std::vector<Buffered>& batch = drain_scratch_;
  batch.clear();
  int64_t offered = 0;
  int64_t shed = 0;
  {
    MutexLock lock(mutex_);
    batch.swap(buffer_);
    offered = period_offered_;
    shed = period_shed_;
    period_offered_ = 0;
    period_shed_ = 0;
  }

  // Submit in arrival order. A refusal does not stop the drain: the
  // submission already holds a ticket, so it is counted as dropped and
  // its successors still submit.
  int64_t accepted = 0;
  int64_t dropped = 0;
  for (Buffered& item : batch) {
    if (center_->Submit(std::move(item.submission)).ok()) {
      ++accepted;
    } else {
      ++dropped;
    }
  }

  // A ticket's job ended when its submission left the gate buffer.
  for (const Buffered& item : batch) {
    pools_[static_cast<size_t>(item.tenant_class)]->Release();
  }
  const double drain_end_ms = tracer != nullptr ? tracer->NowMs() : 0.0;

  GatedPeriodReport gated;
  STREAMBID_ASSIGN_OR_RETURN(gated.report, center_->RunPeriod());
  if (tracer != nullptr) {
    tracer->Record(telemetry::Phase::kGateDrain, gated.report.period,
                   /*shard=*/-1, center_->period_epoch(), drain_start_ms,
                   drain_end_ms - drain_start_ms);
  }

  gated.gate.offered = offered;
  gated.gate.shed = shed;
  gated.gate.admitted = accepted;
  gated.gate.dropped = dropped;
  WaitHistogram merged;
  gated.gate.pools.reserve(pools_.size());
  for (const std::unique_ptr<TicketHolder>& pool : pools_) {
    TicketHolderStats stats = pool->Stats();
    merged.Merge(stats.wait);
    gated.gate.pools.push_back(std::move(stats));
  }
  gated.gate.wait_p99_ms = merged.PercentileMillis(0.99);

  total_offered_ += offered;
  total_shed_ += shed;
  total_admitted_ += accepted;

  if (admitted_metric_ != nullptr) {
    admitted_metric_->Increment(accepted);
    dropped_metric_->Increment(dropped);
    wait_p99_metric_->Set(gated.gate.wait_p99_ms);
  }

  if (options_.probe.enabled) {
    // One probe epoch per period, judged on what the gate actually
    // admitted; the decision replays from (admit history, seed).
    const ProbeDecision decision =
        probe_.Observe(static_cast<double>(accepted));
    const int classes = static_cast<int>(pools_.size());
    const int per_class = std::max(1, decision.concurrency / classes);
    for (const std::unique_ptr<TicketHolder>& pool : pools_) {
      STREAMBID_RETURN_IF_ERROR(pool->Resize(per_class));
    }
    if (probe_concurrency_metric_ != nullptr) {
      probe_concurrency_metric_->Set(
          static_cast<double>(decision.concurrency));
    }
    gated.probe = decision;
  }
  return gated;
}

int StreamIngress::buffered() const {
  MutexLock lock(mutex_);
  return static_cast<int>(buffer_.size());
}

int StreamIngress::buffered_high_water() const {
  MutexLock lock(mutex_);
  return buffered_high_water_;
}

}  // namespace streambid::gate
