// Copyright 2026 The streambid Authors
// ClusterCenter: sharded periods through the executor pool must be
// indistinguishable from each shard running alone, and routing policies
// must steer submissions as documented.

#include "cluster/cluster_center.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace streambid::cluster {
namespace {

using stream::CompareOp;
using stream::QueryBuilder;
using stream::QuerySubmission;
using stream::Value;

Status RegisterQuotes(stream::Engine& engine) {
  return engine.RegisterSource(stream::MakeStockQuoteSource(
      "quotes", {"IBM", "AAPL", "MSFT"}, 100.0, 11));
}

QuerySubmission MakeSubmission(int id, auction::UserId user, double bid,
                               double threshold) {
  QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", CompareOp::kGt, Value(threshold));
  QuerySubmission sub;
  sub.query_id = id;
  sub.user = user;
  sub.bid = bid;
  sub.plan = b.Build(sel);
  return sub;
}

ClusterOptions BaseOptions(int num_shards, RoutingPolicy routing) {
  ClusterOptions options;
  options.num_shards = num_shards;
  // 2 capacity units per shard — each distinct select costs ~1 unit, so
  // auctions actually reject (same regime as the DsmsCenter tests).
  options.total_capacity = 2.0 * num_shards;
  options.routing = routing;
  options.mechanism = "cat";
  options.period_length = 5.0;
  options.seed = 21;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 8;
  options.executor_threads = 2;
  return options;
}

TEST(ClusterCenterTest, MergesShardReports) {
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kHashUser),
                        RegisterQuotes);
  // Enough tenants that both shards receive submissions.
  for (int id = 1; id <= 8; ++id) {
    const auto shard =
        cluster.Submit(MakeSubmission(id, id, 60.0 - 5.0 * id,
                                      100.0 + 5.0 * (id % 3)));
    ASSERT_TRUE(shard.ok());
    EXPECT_GE(*shard, 0);
    EXPECT_LT(*shard, 2);
  }

  const auto report = cluster.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->period, 0);
  EXPECT_EQ(report->submissions, 8);
  ASSERT_EQ(report->shard_reports.size(), 2u);

  int admitted = 0;
  int submissions = 0;
  double revenue = 0.0;
  for (const cloud::PeriodReport& shard : report->shard_reports) {
    EXPECT_EQ(shard.mechanism, "cat");
    admitted += shard.admitted;
    submissions += shard.submissions;
    revenue += shard.revenue;
  }
  EXPECT_EQ(report->admitted, admitted);
  EXPECT_EQ(report->submissions, submissions);
  EXPECT_DOUBLE_EQ(report->revenue, revenue);
  EXPECT_DOUBLE_EQ(cluster.total_revenue(), revenue);
  EXPECT_GT(report->admitted, 0);
  // Capacity 2 per shard and ~1 unit per distinct select: at least one
  // of the 8 submissions must lose.
  EXPECT_LT(report->admitted, report->submissions);
  EXPECT_GE(report->elapsed_ms, 0.0);
  EXPECT_EQ(cluster.history().size(), 1u);
}

/// Bursty tenant count per period: spikes, a trickle, and one fully
/// idle period, so the reference check covers loaded, light, and
/// no-auction shards.
int TenantsFor(int period) {
  if (period == 5) return 0;
  return period % 3 == 0 ? 10 : 4;
}

void ExpectReportsIdentical(const cloud::PeriodReport& actual,
                            const cloud::PeriodReport& expected) {
  EXPECT_EQ(actual.period, expected.period);
  EXPECT_EQ(actual.mechanism, expected.mechanism);
  EXPECT_EQ(actual.submissions, expected.submissions);
  EXPECT_EQ(actual.admitted, expected.admitted);
  EXPECT_EQ(actual.admitted_ids, expected.admitted_ids);
  EXPECT_EQ(actual.payments, expected.payments);
  // Byte-identical doubles: the pool must be invisible, not "close".
  EXPECT_EQ(actual.revenue, expected.revenue);
  EXPECT_EQ(actual.total_payoff, expected.total_payoff);
  EXPECT_EQ(actual.auction_utilization, expected.auction_utilization);
  EXPECT_EQ(actual.measured_utilization, expected.measured_utilization);
  EXPECT_EQ(actual.shed_fraction, expected.shed_fraction);
  EXPECT_EQ(actual.provisioned_capacity, expected.provisioned_capacity);
  EXPECT_EQ(actual.energy_cost, expected.energy_cost);
  ASSERT_EQ(actual.autoscale_decision.has_value(),
            expected.autoscale_decision.has_value());
  if (actual.autoscale_decision.has_value()) {
    EXPECT_EQ(actual.autoscale_decision->capacity,
              expected.autoscale_decision->capacity);
    EXPECT_EQ(actual.autoscale_decision->changed,
              expected.autoscale_decision->changed);
    EXPECT_EQ(actual.autoscale_decision->reason,
              expected.autoscale_decision->reason);
  }
}

/// Runs 8 periods of the bursty workload through a 4-shard cluster and
/// through 4 standalone DsmsCenter twins (same capacity split, same
/// per-shard seeds and autoscaler, same engine configuration), fed the
/// same submissions in the same order, and checks every shard report
/// and merged total. Returns whether any autoscaler changed capacity.
bool ExpectClusterMatchesTwins(int executor_threads, bool autoscale) {
  constexpr int kShards = 4;
  constexpr int kPeriods = 8;
  ClusterOptions options = BaseOptions(kShards, RoutingPolicy::kHashUser);
  options.executor_threads = executor_threads;
  if (autoscale) {
    options.autoscale.enabled = true;
    options.autoscale.min_capacity_ratio = 0.25;
    options.autoscale.min_dwell_periods = 2;
  }
  ClusterCenter cluster(options, RegisterQuotes);

  stream::EngineOptions engine_options = options.engine_options;
  engine_options.capacity = options.total_capacity / kShards;
  std::vector<std::unique_ptr<stream::Engine>> engines;
  std::vector<std::unique_ptr<cloud::DsmsCenter>> twins;
  for (int s = 0; s < kShards; ++s) {
    engines.push_back(std::make_unique<stream::Engine>(engine_options));
    EXPECT_TRUE(RegisterQuotes(*engines.back()).ok());
    cloud::DsmsCenterOptions center_options;
    center_options.period_length = options.period_length;
    center_options.mechanism = options.mechanism;
    center_options.load_options = options.load_options;
    center_options.seed = options.seed + static_cast<uint64_t>(s);
    center_options.autoscale = options.autoscale;
    twins.push_back(std::make_unique<cloud::DsmsCenter>(
        center_options, engines.back().get()));
  }

  bool any_change = false;
  for (int period = 0; period < kPeriods; ++period) {
    for (int t = 1; t <= TenantsFor(period); ++t) {
      QuerySubmission sub = MakeSubmission(
          t, t, 55.0 - 3.0 * t - period, 100.0 + 5.0 * (t % 4));
      const int shard = static_cast<int>(
          ShardRouter::HashUser(sub.user) % static_cast<uint64_t>(kShards));
      EXPECT_TRUE(twins[static_cast<size_t>(shard)]->Submit(sub).ok());
      const auto routed = cluster.Submit(std::move(sub));
      EXPECT_EQ(routed.ok() ? *routed : -1, shard);
    }
    const auto merged = cluster.RunPeriod();
    EXPECT_TRUE(merged.ok()) << merged.status().ToString();
    if (!merged.ok()) return any_change;
    EXPECT_EQ(merged->period, period);
    EXPECT_EQ(merged->shard_reports.size(), static_cast<size_t>(kShards));
    int submissions = 0;
    int admitted = 0;
    double revenue = 0.0;
    double provisioned = 0.0;
    double energy = 0.0;
    for (int s = 0; s < kShards; ++s) {
      const auto expected = twins[static_cast<size_t>(s)]->RunPeriod();
      EXPECT_TRUE(expected.ok());
      if (!expected.ok()) continue;
      SCOPED_TRACE("pool " + std::to_string(executor_threads) +
                   " autoscale " + std::to_string(autoscale) + " period " +
                   std::to_string(period) + " shard " + std::to_string(s));
      ExpectReportsIdentical(merged->shard_reports[static_cast<size_t>(s)],
                             *expected);
      submissions += expected->submissions;
      admitted += expected->admitted;
      revenue += expected->revenue;
      provisioned += expected->provisioned_capacity;
      energy += expected->energy_cost;
      any_change = any_change || (expected->autoscale_decision.has_value() &&
                                  expected->autoscale_decision->changed);
    }
    EXPECT_EQ(merged->submissions, submissions);
    EXPECT_EQ(merged->admitted, admitted);
    EXPECT_EQ(merged->revenue, revenue);
    EXPECT_EQ(merged->provisioned_capacity, provisioned);
    EXPECT_EQ(merged->energy_cost, energy);
  }
  return any_change;
}

TEST(ClusterCenterTest, ShardsMatchStandaloneCenters) {
  // The reference for the cluster's one period path: N shards driven
  // through the executor pool produce exactly the periods each center
  // would produce on its own, at every pool size, with and without
  // per-shard autoscaling.
  for (const int threads : {1, 2, 8}) {
    EXPECT_FALSE(ExpectClusterMatchesTwins(threads, /*autoscale=*/false));
    // The autoscaled runs must actually move capacity to count as
    // coverage of the prepare stage's candidate grid.
    EXPECT_TRUE(ExpectClusterMatchesTwins(threads, /*autoscale=*/true));
  }
}

TEST(ClusterCenterTest, LeastLoadedBalancesIdenticalTenants) {
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kLeastLoaded),
                        RegisterQuotes);
  // Distinct thresholds -> distinct loads per submission, so every
  // submission raises its shard's pending load and the next one goes to
  // the other shard.
  std::vector<int> counts(2, 0);
  for (int id = 1; id <= 6; ++id) {
    const auto shard = cluster.Submit(
        MakeSubmission(id, 1, 30.0, 100.0 + id));
    ASSERT_TRUE(shard.ok());
    ++counts[static_cast<size_t>(*shard)];
  }
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 3);
  const auto& statuses = cluster.shard_statuses();
  EXPECT_GT(statuses[0].pending_load, 0.0);

  // After the period the pending accumulators reset.
  ASSERT_TRUE(cluster.RunPeriod().ok());
  EXPECT_DOUBLE_EQ(cluster.shard_statuses()[0].pending_load, 0.0);
}

TEST(ClusterCenterTest, EmptyPeriodRunsCleanly) {
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kHashUser),
                        RegisterQuotes);
  const auto report = cluster.RunPeriod();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->submissions, 0);
  EXPECT_EQ(report->admitted, 0);
  EXPECT_DOUBLE_EQ(report->revenue, 0.0);
  ASSERT_EQ(report->shard_reports.size(), 2u);
  for (int s = 0; s < 2; ++s) {
    EXPECT_DOUBLE_EQ(cluster.shard(s).engine().now(), 5.0);
  }
}

TEST(ClusterCenterTest, SubmitValidationPropagates) {
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kHashUser),
                        RegisterQuotes);
  QueryBuilder b;
  const int src = b.Source("no_such_stream");
  QuerySubmission unknown;
  unknown.query_id = 1;
  unknown.user = 1;
  unknown.bid = 5.0;
  unknown.plan = b.Build(src);
  EXPECT_EQ(cluster.Submit(std::move(unknown)).status().code(),
            StatusCode::kNotFound);
}

TEST(ClusterCenterTest, UtilizationWeightedByDivergedCapacities) {
  // Autoscaling with all traffic hashed onto one shard: the idle shard
  // shrinks toward its floor while the busy one holds, so per-shard
  // capacities genuinely diverge — the regression regime for the
  // cluster report's utilization fields.
  ClusterOptions options = BaseOptions(2, RoutingPolicy::kHashUser);
  options.autoscale.enabled = true;
  options.autoscale.min_capacity_ratio = 0.25;
  options.autoscale.min_dwell_periods = 1;
  ClusterCenter cluster(options, RegisterQuotes);

  const int busy_shard =
      static_cast<int>(ShardRouter::HashUser(1) % 2ull);
  std::vector<auction::UserId> users;
  for (auction::UserId u = 1; users.size() < 3; ++u) {
    if (static_cast<int>(ShardRouter::HashUser(u) % 2ull) == busy_shard) {
      users.push_back(u);
    }
  }
  ClusterPeriodReport last;
  for (int period = 0; period < 4; ++period) {
    for (size_t k = 0; k < users.size(); ++k) {
      ASSERT_TRUE(cluster
                      .Submit(MakeSubmission(
                          static_cast<int>(k) + 1, users[k], 40.0,
                          105.0 + 5.0 * static_cast<double>(k)))
                      .ok());
    }
    const auto report = cluster.RunPeriod();
    ASSERT_TRUE(report.ok());
    last = *report;
  }

  // Capacities diverged; the reported utilizations must be the
  // capacity-weighted means over the shard reports, not plain means.
  const cloud::PeriodReport& a = last.shard_reports[0];
  const cloud::PeriodReport& b = last.shard_reports[1];
  ASSERT_NE(a.provisioned_capacity, b.provisioned_capacity);
  const double total = a.provisioned_capacity + b.provisioned_capacity;
  EXPECT_DOUBLE_EQ(last.auction_utilization,
                   (a.auction_utilization * a.provisioned_capacity +
                    b.auction_utilization * b.provisioned_capacity) /
                       total);
  EXPECT_DOUBLE_EQ(last.measured_utilization,
                   (a.measured_utilization * a.provisioned_capacity +
                    b.measured_utilization * b.provisioned_capacity) /
                       total);
  // The plain mean would over-credit the shrunken idle shard: make
  // sure the weighted figure actually differs from it.
  EXPECT_NE(last.measured_utilization,
            (a.measured_utilization + b.measured_utilization) / 2.0);
}

// --- Error paths: a submission the shard rejects must not bias the
// router's view, and a RunPeriod that cannot reach the executor must
// leave the surface usable. ---

TEST(ClusterCenterTest, FailedSubmitLeavesStatusesUntouched) {
  // Hash routing: user 1 deterministically re-routes to the same
  // shard, so the duplicate below really reaches the pending check.
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kHashUser),
                        RegisterQuotes);
  ASSERT_TRUE(cluster.Submit(MakeSubmission(1, 1, 40.0, 105.0)).ok());
  const std::vector<ShardStatus> before = cluster.shard_statuses();

  // The shard's Submit refuses the plan after routing (unknown
  // source)...
  QueryBuilder bad;
  const int src = bad.Source("no_such_stream");
  QuerySubmission unknown;
  unknown.query_id = 2;
  unknown.user = 2;
  unknown.bid = 5.0;
  unknown.plan = bad.Build(src);
  EXPECT_EQ(cluster.Submit(std::move(unknown)).status().code(),
            StatusCode::kNotFound);
  // ...and refuses a duplicate pending id routed to the same shard.
  EXPECT_EQ(cluster.Submit(MakeSubmission(1, 1, 40.0, 105.0))
                .status()
                .code(),
            StatusCode::kAlreadyExists);

  const std::vector<ShardStatus>& after = cluster.shard_statuses();
  for (size_t s = 0; s < before.size(); ++s) {
    EXPECT_DOUBLE_EQ(after[s].pending_load, before[s].pending_load) << s;
  }
}

TEST(ClusterCenterTest, UnpriceablePlanDoesNotStallTheCluster) {
  // A source-only plan has nothing for the auction to price. The shard
  // refuses it at Submit, so it cannot fail every later period.
  ClusterCenter cluster(BaseOptions(2, RoutingPolicy::kHashUser),
                        RegisterQuotes);
  ASSERT_TRUE(cluster.Submit(MakeSubmission(1, 1, 40.0, 105.0)).ok());
  const std::vector<ShardStatus> before = cluster.shard_statuses();

  QueryBuilder b;
  QuerySubmission tap;
  tap.query_id = 2;
  tap.user = 2;
  tap.bid = 30.0;
  tap.plan = b.Build(b.Source("quotes"));
  EXPECT_EQ(cluster.Submit(std::move(tap)).status().code(),
            StatusCode::kInvalidArgument);

  const std::vector<ShardStatus>& after = cluster.shard_statuses();
  for (size_t s = 0; s < before.size(); ++s) {
    EXPECT_DOUBLE_EQ(after[s].pending_load, before[s].pending_load) << s;
  }
  const auto report = cluster.RunPeriod();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->submissions, 1);
  EXPECT_EQ(report->admitted, 1);
}

TEST(ClusterCenterTest, SingleShardDegeneratesToOneCenter) {
  ClusterCenter cluster(BaseOptions(1, RoutingPolicy::kLeastLoaded),
                        RegisterQuotes);
  for (int id = 1; id <= 3; ++id) {
    const auto shard =
        cluster.Submit(MakeSubmission(id, id, 50.0 - id, 110.0 + id));
    ASSERT_TRUE(shard.ok());
    EXPECT_EQ(*shard, 0);
  }
  const auto report = cluster.RunPeriod();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->shard_reports.size(), 1u);
  EXPECT_EQ(report->submissions, 3);
}

}  // namespace
}  // namespace streambid::cluster
