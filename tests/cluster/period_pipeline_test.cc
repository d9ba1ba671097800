// Copyright 2026 The streambid Authors
// Period pipelining contract: a cluster period runs as per-shard
// prepare -> admit -> complete chains on the persistent executor pool,
// so all period work must land on pool workers (no per-period threads).
// Report identity against standalone centers at every pool size lives in
// ClusterCenterTest.ShardsMatchStandaloneCenters.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "cluster/cluster_center.h"
#include "cluster/task_executor.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"
#include "telemetry/metrics.h"

namespace streambid::cluster {
namespace {

constexpr int kShards = 4;

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

TEST(PeriodPipelineTest, AllPeriodWorkLandsOnPoolWorkers) {
  // The check for "no per-period threads": after P periods, every task
  // is accounted to one of the pool's workers, and the chain count is
  // exactly periods x shards — there is nowhere else work could have
  // run.
  ClusterOptions options;
  options.num_shards = kShards;
  options.total_capacity = 8.0;
  options.routing = RoutingPolicy::kHashUser;
  options.mechanism = "cat";
  options.period_length = 5.0;
  options.seed = 61;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 4;
  options.executor_threads = 2;
  telemetry::MetricsRegistry metrics;
  options.metrics = &metrics;
  ClusterCenter cluster(options, RegisterQuotes);
  int auctions = 0;
  for (int period = 0; period < 3; ++period) {
    for (int t = 1; t <= 10; ++t) {
      ASSERT_TRUE(cluster
                      .Submit(MakeSubmission(t, t, 55.0 - 3.0 * t,
                                             100.0 + 5.0 * (t % 4)))
                      .ok());
    }
    const auto report = cluster.RunPeriod();
    ASSERT_TRUE(report.ok());
    for (const cloud::PeriodReport& shard : report->shard_reports) {
      if (shard.submissions > 0) ++auctions;
    }
  }
  const TaskExecutorStats stats = cluster.executor().StatsReport();
  ASSERT_EQ(stats.tasks_per_worker.size(), 2u);
  EXPECT_EQ(std::accumulate(stats.tasks_per_worker.begin(),
                            stats.tasks_per_worker.end(), int64_t{0}),
            static_cast<int64_t>(3 * kShards));
  EXPECT_EQ(stats.executed, static_cast<int64_t>(3 * kShards));
  EXPECT_EQ(stats.failed, 0);
  // Every shard auction ran inside those chains, on a worker's own
  // service: only the pool's services count into service_admissions.
  EXPECT_GT(auctions, 0);
  EXPECT_EQ(metrics.GetCounter("service_admissions")->Value(), auctions);
}

}  // namespace
}  // namespace streambid::cluster
