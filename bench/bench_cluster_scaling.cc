// Copyright 2026 The streambid Authors
// Cluster scaling bench: one big center vs N shards at equal total
// capacity — the sharded multi-center question. For each mechanism and
// routing policy, the same tenant book runs three subscription periods
// against a 1-shard and a 4-shard ClusterCenter and we compare
// aggregate revenue, admission, utilization, and wall clock. Sharding
// splits operator sharing across shards (a tenant's operators are only
// shared with co-located tenants), which is exactly the profit tension
// the paper's single-center model cannot see.
//
// Writes BENCH_cluster_scaling.json: revenue and admit rate per
// mechanism x layout.
//
// Scales with the usual STREAMBID_* env knobs (see bench_common.h).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_center.h"
#include "common/table.h"
#include "common/timer.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace {

using namespace streambid;

struct TenantBookEntry {
  int id;
  auction::UserId user;
  double bid;
  double threshold;
};

/// Deterministic tenant book: distinct users, Zipf-ish bids, a handful
/// of distinct select thresholds so tenants share operators — which is
/// precisely what sharding splits.
std::vector<TenantBookEntry> MakeTenantBook(int tenants) {
  std::vector<TenantBookEntry> book;
  Rng rng(0x7EA7u);
  book.reserve(static_cast<size_t>(tenants));
  for (int i = 1; i <= tenants; ++i) {
    TenantBookEntry entry;
    entry.id = i;
    entry.user = i;
    entry.bid = 5.0 + rng.NextRange(0.0, 95.0);
    entry.threshold = 95.0 + 2.0 * static_cast<double>(rng.NextBounded(8));
    book.push_back(entry);
  }
  return book;
}

stream::QuerySubmission MakeTenant(const TenantBookEntry& entry) {
  stream::QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                           stream::Value(entry.threshold));
  stream::QuerySubmission sub;
  sub.query_id = entry.id;
  sub.user = entry.user;
  sub.bid = entry.bid;
  sub.plan = b.Build(sel);
  return sub;
}

Status RegisterQuotes(stream::Engine& engine) {
  return engine.RegisterSource(stream::MakeStockQuoteSource(
      "quotes", {"IBM", "AAPL", "MSFT", "GOOG"}, /*rate=*/100.0, 5));
}

struct ShardingRow {
  std::string layout;
  double revenue = 0.0;
  int admitted = 0;
  int submitted = 0;
  double utilization = 0.0;
  double wall_ms = 0.0;
};

ShardingRow RunLayout(const std::string& mechanism, int num_shards,
                      cluster::RoutingPolicy policy, int tenants,
                      int periods, double total_capacity) {
  cluster::ClusterOptions options;
  options.num_shards = num_shards;
  options.total_capacity = total_capacity;
  options.routing = policy;
  options.mechanism = mechanism;
  options.period_length = 30.0;
  options.seed = 97;
  options.engine_options.tick = 1.0;
  options.engine_options.sink_history = 4;
  options.executor_threads = num_shards;
  cluster::ClusterCenter center(options, RegisterQuotes);

  const std::vector<TenantBookEntry> book = MakeTenantBook(tenants);
  ShardingRow row;
  row.layout = num_shards == 1
                   ? "1-center"
                   : std::to_string(num_shards) + "-shard/" +
                         cluster::RoutingPolicyName(policy);
  Timer timer;
  for (int period = 0; period < periods; ++period) {
    for (const TenantBookEntry& entry : book) {
      const auto shard = center.Submit(MakeTenant(entry));
      STREAMBID_CHECK(shard.ok());
    }
    const auto report = center.RunPeriod();
    STREAMBID_CHECK(report.ok());
    row.admitted += report->admitted;
    row.submitted += report->submissions;
    row.utilization += report->auction_utilization / periods;
  }
  row.wall_ms = timer.ElapsedMillis();
  row.revenue = center.total_revenue();
  return row;
}

/// "two-price_4-shard/least-loaded" -> "two_price_4_shard_least_loaded".
std::string MetricKey(std::string name) {
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return name;
}

void RunShardingExperiment(const bench::BenchConfig& config) {
  const int tenants =
      std::min(120, std::max(16, config.queries / 10));
  const int periods = 3;
  // Half the demand of distinct selects fits: the auction stays binding
  // in both layouts (each distinct threshold costs ~1 unit shared by
  // its tenants; 8 distinct thresholds -> ~8 units of demand).
  const double total_capacity = 4.0;
  std::printf("\n== 1 big center vs 4 shards at equal total capacity "
              "(%d tenants, %d periods) ==\n",
              tenants, periods);

  TextTable table({"mechanism", "layout", "revenue", "admit_rate",
                   "auction_util", "wall_ms"});
  std::vector<std::pair<std::string, double>> artifact;
  for (const std::string& mechanism : {std::string("cat"),
                                       std::string("car"),
                                       std::string("two-price")}) {
    std::vector<ShardingRow> rows;
    rows.push_back(RunLayout(mechanism, 1,
                             cluster::RoutingPolicy::kHashUser, tenants,
                             periods, total_capacity));
    for (cluster::RoutingPolicy policy :
         {cluster::RoutingPolicy::kHashUser,
          cluster::RoutingPolicy::kLeastLoaded}) {
      rows.push_back(RunLayout(mechanism, 4, policy, tenants, periods,
                               total_capacity));
    }
    for (const ShardingRow& row : rows) {
      const double admit_rate =
          row.submitted > 0
              ? static_cast<double>(row.admitted) / row.submitted
              : 0.0;
      table.AddRow({mechanism, row.layout, FormatDouble(row.revenue, 2),
                    FormatDouble(admit_rate, 3),
                    FormatDouble(row.utilization, 3),
                    FormatDouble(row.wall_ms, 1)});
      const std::string key = MetricKey(mechanism + "_" + row.layout);
      artifact.emplace_back(key + "_revenue", row.revenue);
      artifact.emplace_back(key + "_admit_rate", admit_rate);
    }
  }
  std::fputs(table.ToAligned().c_str(), stdout);
  bench::WriteBenchJson("cluster_scaling", artifact);
  std::printf("# sharding splits operator sharing: the 1-center layout "
              "admits tenants whose operators are shared cluster-wide,\n"
              "# shards only share within a shard — the revenue gap "
              "quantifies the paper's sharing effect at cluster scale\n");
}

}  // namespace

int main() {
  bench::BenchConfig config = bench::LoadConfig();
  bench::PrintBanner("cluster scaling: one big center vs N shards",
                     config);
  RunShardingExperiment(config);
  return 0;
}
