// Copyright 2026 The streambid Authors
// Multi-period determinism of the closed autoscaling loop — the PR 2
// identity contract extended to re-provisioning: a DsmsCenter and a
// 4-shard ClusterCenter run 20 autoscaled periods, and the full
// PeriodReport sequence (allocations, payments, provisioning decisions,
// energy) must be identical across repeated runs and across executor
// pool sizes 1/2/8. Provisioning decisions happen in the serial prepare
// phase against each shard's own service, so nothing about the pool may
// leak into them.

#include <gtest/gtest.h>

#include <vector>

#include "cloud/dsms_center.h"
#include "cluster/cluster_center.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace streambid::cluster {
namespace {

constexpr int kPeriods = 20;

Status RegisterQuotes(stream::Engine& engine) {
  return engine.RegisterSource(stream::MakeStockQuoteSource(
      "quotes", {"IBM", "AAPL", "MSFT"}, 100.0, 11));
}

stream::QuerySubmission MakeSubmission(int id, auction::UserId user,
                                       double bid, double threshold) {
  stream::QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                           stream::Value(threshold));
  stream::QuerySubmission sub;
  sub.query_id = id;
  sub.user = user;
  sub.bid = bid;
  sub.plan = b.Build(sel);
  return sub;
}

/// Bursty tenant count for a period: a deterministic spike every fifth
/// period, a trickle otherwise, and two fully idle periods.
int TenantsFor(int period) {
  if (period == 7 || period == 13) return 0;
  return period % 5 == 0 ? 12 : 3;
}

cloud::AutoscalerOptions AutoscaleOptions() {
  cloud::AutoscalerOptions autoscale;
  autoscale.enabled = true;
  autoscale.min_capacity_ratio = 0.25;
  autoscale.min_dwell_periods = 2;
  return autoscale;
}

void ExpectReportsIdentical(const cloud::PeriodReport& a,
                            const cloud::PeriodReport& b) {
  EXPECT_EQ(a.period, b.period);
  EXPECT_EQ(a.mechanism, b.mechanism);
  EXPECT_EQ(a.submissions, b.submissions);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.admitted_ids, b.admitted_ids);
  EXPECT_EQ(a.payments, b.payments);
  // Byte-identical doubles: the loop is deterministic, not just close.
  EXPECT_EQ(a.revenue, b.revenue);
  EXPECT_EQ(a.total_payoff, b.total_payoff);
  EXPECT_EQ(a.auction_utilization, b.auction_utilization);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  EXPECT_EQ(a.shed_fraction, b.shed_fraction);
  EXPECT_EQ(a.provisioned_capacity, b.provisioned_capacity);
  EXPECT_EQ(a.energy_cost, b.energy_cost);
  ASSERT_EQ(a.autoscale_decision.has_value(),
            b.autoscale_decision.has_value());
  if (a.autoscale_decision.has_value()) {
    const cloud::AutoscaleDecision& da = *a.autoscale_decision;
    const cloud::AutoscaleDecision& db = *b.autoscale_decision;
    EXPECT_EQ(da.period, db.period);
    EXPECT_EQ(da.evaluated, db.evaluated);
    EXPECT_EQ(da.changed, db.changed);
    EXPECT_EQ(da.previous_capacity, db.previous_capacity);
    EXPECT_EQ(da.capacity, db.capacity);
    EXPECT_EQ(da.demand_estimate, db.demand_estimate);
    EXPECT_EQ(da.expected_net_profit, db.expected_net_profit);
    EXPECT_EQ(da.reason, db.reason);
  }
}

// --- Single center. ---------------------------------------------------

std::vector<cloud::PeriodReport> RunCenter() {
  stream::Engine engine(stream::EngineOptions{6.0, 1.0, 8});
  EXPECT_TRUE(RegisterQuotes(engine).ok());
  cloud::DsmsCenterOptions options;
  options.mechanism = "cat";
  options.period_length = 5.0;
  options.seed = 31;
  options.autoscale = AutoscaleOptions();
  cloud::DsmsCenter center(options, &engine);
  std::vector<cloud::PeriodReport> reports;
  for (int period = 0; period < kPeriods; ++period) {
    for (int t = 1; t <= TenantsFor(period); ++t) {
      EXPECT_TRUE(center
                      .Submit(MakeSubmission(t, t, 60.0 - 3.0 * t,
                                             100.0 + 5.0 * (t % 4)))
                      .ok());
    }
    const auto report = center.RunPeriod();
    EXPECT_TRUE(report.ok());
    reports.push_back(*report);
  }
  return reports;
}

TEST(AutoscaleReplayTest, CenterReplaysTwentyPeriodsIdentically) {
  const auto first = RunCenter();
  const auto second = RunCenter();
  ASSERT_EQ(first.size(), static_cast<size_t>(kPeriods));
  ASSERT_EQ(second.size(), first.size());
  bool any_change = false;
  for (size_t p = 0; p < first.size(); ++p) {
    ExpectReportsIdentical(first[p], second[p]);
    any_change = any_change || (first[p].autoscale_decision.has_value() &&
                                first[p].autoscale_decision->changed);
  }
  // The run must actually exercise the loop, not hold one capacity.
  EXPECT_TRUE(any_change);
}

// --- 4-shard cluster across executor pool sizes. ----------------------

std::vector<ClusterPeriodReport> RunCluster(int executor_threads) {
  ClusterOptions options;
  options.num_shards = 4;
  options.total_capacity = 8.0;
  options.routing = RoutingPolicy::kHashUser;
  options.mechanism = "cat";
  options.period_length = 5.0;
  options.seed = 47;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 4;
  options.executor_threads = executor_threads;
  options.autoscale = AutoscaleOptions();
  ClusterCenter cluster(options, RegisterQuotes);
  std::vector<ClusterPeriodReport> reports;
  for (int period = 0; period < kPeriods; ++period) {
    for (int t = 1; t <= TenantsFor(period); ++t) {
      EXPECT_TRUE(cluster
                      .Submit(MakeSubmission(t, t, 60.0 - 3.0 * t,
                                             100.0 + 5.0 * (t % 4)))
                      .ok());
    }
    const auto report = cluster.RunPeriod();
    EXPECT_TRUE(report.ok());
    reports.push_back(*report);
  }
  return reports;
}

void ExpectClusterRunsIdentical(
    const std::vector<ClusterPeriodReport>& a,
    const std::vector<ClusterPeriodReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].period, b[p].period);
    EXPECT_EQ(a[p].submissions, b[p].submissions);
    EXPECT_EQ(a[p].admitted, b[p].admitted);
    EXPECT_EQ(a[p].revenue, b[p].revenue);
    EXPECT_EQ(a[p].total_payoff, b[p].total_payoff);
    EXPECT_EQ(a[p].auction_utilization, b[p].auction_utilization);
    EXPECT_EQ(a[p].measured_utilization, b[p].measured_utilization);
    EXPECT_EQ(a[p].provisioned_capacity, b[p].provisioned_capacity);
    EXPECT_EQ(a[p].energy_cost, b[p].energy_cost);
    ASSERT_EQ(a[p].shard_reports.size(), b[p].shard_reports.size());
    for (size_t s = 0; s < a[p].shard_reports.size(); ++s) {
      ExpectReportsIdentical(a[p].shard_reports[s],
                             b[p].shard_reports[s]);
    }
  }
}

TEST(AutoscaleReplayTest, ClusterReplaysAcrossPoolSizes) {
  const auto pool1 = RunCluster(1);
  const auto pool1_again = RunCluster(1);
  const auto pool2 = RunCluster(2);
  const auto pool8 = RunCluster(8);
  ExpectClusterRunsIdentical(pool1, pool1_again);
  ExpectClusterRunsIdentical(pool1, pool2);
  ExpectClusterRunsIdentical(pool1, pool8);

  // The closed loop actually moved capacity, and the merged view adds
  // up: total provisioned == sum over shards, ditto energy.
  bool any_change = false;
  for (const ClusterPeriodReport& report : pool1) {
    double provisioned = 0.0, energy = 0.0;
    for (const cloud::PeriodReport& shard : report.shard_reports) {
      provisioned += shard.provisioned_capacity;
      energy += shard.energy_cost;
      any_change = any_change || (shard.autoscale_decision.has_value() &&
                                  shard.autoscale_decision->changed);
    }
    EXPECT_DOUBLE_EQ(report.provisioned_capacity, provisioned);
    EXPECT_DOUBLE_EQ(report.energy_cost, energy);
  }
  EXPECT_TRUE(any_change);
}

TEST(AutoscaleReplayTest, RouterSeesAutoscaledCapacities) {
  ClusterOptions options;
  options.num_shards = 2;
  options.total_capacity = 8.0;
  options.mechanism = "cat";
  options.period_length = 5.0;
  options.seed = 5;
  options.engine_options.tick = 1.0;
  options.executor_threads = 2;
  options.autoscale = AutoscaleOptions();
  options.autoscale.min_dwell_periods = 1;
  ClusterCenter cluster(options, RegisterQuotes);
  std::vector<double> previous;
  for (const ShardStatus& status : cluster.shard_statuses()) {
    EXPECT_DOUBLE_EQ(status.next_capacity, 4.0);
    previous.push_back(status.next_capacity);
  }
  // Through the bursty schedule the autoscalers shrink and grow the
  // shards; after every period the router's view is each engine's
  // capacity, so it is never zero.
  bool shrank = false;
  bool grew = false;
  for (int period = 0; period < kPeriods; ++period) {
    for (int t = 1; t <= TenantsFor(period); ++t) {
      ASSERT_TRUE(cluster
                      .Submit(MakeSubmission(t, t, 60.0 - 3.0 * t,
                                             100.0 + 5.0 * (t % 4)))
                      .ok());
    }
    ASSERT_TRUE(cluster.RunPeriod().ok());
    for (int s = 0; s < 2; ++s) {
      const double capacity =
          cluster.shard_statuses()[static_cast<size_t>(s)].next_capacity;
      EXPECT_EQ(capacity, cluster.shard(s).engine().options().capacity)
          << "period " << period << " shard " << s;
      EXPECT_GT(capacity, 0.0) << "period " << period << " shard " << s;
      double& before = previous[static_cast<size_t>(s)];
      shrank = shrank || capacity < before;
      grew = grew || capacity > before;
      before = capacity;
    }
  }
  EXPECT_TRUE(shrank);
  EXPECT_TRUE(grew);
}

}  // namespace
}  // namespace streambid::cluster
