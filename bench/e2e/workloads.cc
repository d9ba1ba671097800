// Copyright 2026 The streambid Authors

#include "bench/e2e/workloads.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

namespace streambid::bench::e2e {
namespace {

// The rotating hot cohort of hot_tenants: kHotCohort users that all
// hash onto one shard, each offering kHotOffersPerUser queries a period,
// moving to a fresh cohort on the next shard every kHotPhasePeriods.
// The rotation keeps the rebalancer and the autoscaler working through
// the whole timed window instead of settling after the first migration.
constexpr int kHotCohort = 24;
constexpr int kHotOffersPerUser = 8;
constexpr int kHotOffers = kHotCohort * kHotOffersPerUser;
constexpr int64_t kHotPhasePeriods = 30;
constexpr auction::UserId kHotUserBase = 1000000;

// Capacity comes from a fixed seed, so every --seed runs against the
// same capacity and the spread across seeds is the inputs' alone.
constexpr uint64_t kCalibrationSeed = 0;
constexpr int kCalibrationPeriods = 10;

// Plan shapes of the catalogue.
enum Shape : int {
  kSelect = 0,          // quotes: select(volume > t)
  kSelectMaxBySymbol,   // ... -> max(price) by symbol, tumbling 10 s
  kSensorSlidingAvg,    // sensors: select(reading > t) -> avg by sensor
  kSelectTopK,          // quotes: select(volume > t) -> top-3 by price
  kNumShapes,
};

// Bid scale per shape, roughly proportional to its analytic load so
// that the auction's densities are comparable across shapes.
constexpr double kShapeBid[kNumShapes] = {10.0, 20.0, 20.0, 25.0};

stream::QueryPlan MakePlan(int shape, int threshold, int distinct) {
  // Thresholds spread over the middle of each field's stationary range
  // (volume is uniform in [100, 10100); readings revert to 20.0), so
  // selectivity stays between ~0.2 and ~0.8 for the whole run.
  const double u = (threshold + 0.5) / distinct;
  stream::QueryBuilder b;
  if (shape == kSensorSlidingAvg) {
    const int src = b.Source("sensors");
    const int sel = b.Select(src, "reading", stream::CompareOp::kGt,
                             stream::Value(19.7 + 0.6 * u));
    return b.Build(b.Aggregate(sel, stream::AggFn::kAvg, "reading",
                               "sensor", stream::WindowSpec{10.0, 5.0}));
  }
  const int src = b.Source("quotes");
  const int sel =
      b.Select(src, "volume", stream::CompareOp::kGt,
               stream::Value(static_cast<int64_t>(2000 + 6000 * u)));
  switch (shape) {
    case kSelectMaxBySymbol:
      return b.Build(b.Aggregate(sel, stream::AggFn::kMax, "price",
                                 "symbol", stream::WindowSpec{10.0, 10.0}));
    case kSelectTopK:
      return b.Build(b.TopK(sel, 3, "price", 10.0));
    default:
      return b.Build(sel);
  }
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(3);
    // The paper's period model: a batch per period, heavy sharing, a
    // long virtual period — the engine's tuple path dominates.
    w[0].name = "daily_mix";
    w[0].offers_per_period = 200;
    w[0].tenants = 400;
    w[0].distinct_thresholds = 16;
    w[0].mechanism = "cat";
    w[0].period_length = 30.0;
    w[0].source_rate = 100.0;
    w[0].capacity_fraction = 0.6;
    w[0].periods_per_second = 20.0;
    // Many tenants, little sharing, a one-second period — the admission
    // path (route, estimate, instance build, install) dominates.
    w[1].name = "flash_crowd";
    w[1].offers_per_period = 4000;
    w[1].tenants = 20000;
    w[1].distinct_thresholds = 1000;
    w[1].mechanism = "two-price";
    w[1].period_length = 1.0;
    w[1].source_rate = 10.0;
    w[1].capacity_fraction = 0.6;
    w[1].periods_per_second = 13.0;
    // A hot cohort on one shard: migrations, routing overrides and
    // re-provisioning beside the reads.
    w[2].name = "hot_tenants";
    w[2].offers_per_period = 400;
    w[2].tenants = 400;
    w[2].distinct_thresholds = 64;
    w[2].mechanism = "cat";
    w[2].period_length = 10.0;
    w[2].source_rate = 100.0;
    w[2].capacity_fraction = 0.6;
    w[2].hot_tenants = true;
    w[2].periods_per_second = 28.0;
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

OfferGenerator::OfferGenerator(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed), tenants_(spec.tenants, 1.1) {}

auction::UserId OfferGenerator::HotUser(int64_t phase, int member) const {
  const uint64_t hot_shard =
      (static_cast<uint64_t>(phase) + seed_) % static_cast<uint64_t>(kShards);
  auction::UserId user =
      kHotUserBase + static_cast<auction::UserId>((phase % 512) * 4096);
  for (int found = -1;; ++user) {
    if (cluster::ShardRouter::HashUser(user) % kShards == hot_shard &&
        ++found == member) {
      return user;
    }
  }
}

stream::QuerySubmission OfferGenerator::Make(int64_t index) const {
  STREAMBID_CHECK(index >= 0 && index < std::numeric_limits<int>::max());
  Rng rng(Mix64(seed_ * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(index)));
  const int64_t period = index / spec_.offers_per_period;
  const int slot = static_cast<int>(index % spec_.offers_per_period);

  stream::QuerySubmission sub;
  sub.query_id = static_cast<int>(index) + 1;
  double bid_scale = 1.0;
  if (spec_.hot_tenants && slot < kHotOffers) {
    sub.user = HotUser(period / kHotPhasePeriods, slot % kHotCohort);
    bid_scale = 3.0;
  } else {
    sub.user = static_cast<auction::UserId>(tenants_.Sample(rng));
  }
  const int shape = static_cast<int>(rng.NextBounded(kNumShapes));
  const int threshold = static_cast<int>(
      rng.NextBounded(static_cast<uint64_t>(spec_.distinct_thresholds)));
  sub.bid = bid_scale * kShapeBid[shape] * (0.5 + rng.NextDouble());
  sub.plan = MakePlan(shape, threshold, spec_.distinct_thresholds);
  return sub;
}

Status ConfigureEngine(const WorkloadSpec& spec, uint64_t seed,
                       stream::Engine& engine) {
  STREAMBID_RETURN_IF_ERROR(engine.RegisterSource(stream::MakeStockQuoteSource(
      "quotes", {"IBM", "AAPL", "MSFT", "GOOG", "ORCL", "SAP"},
      spec.source_rate, Mix64(seed ^ 0x0A0B0C0Dull))));
  return engine.RegisterSource(stream::MakeSensorSource(
      "sensors", 32, spec.source_rate, Mix64(seed ^ 0x5E5502ull)));
}

stream::EngineOptions EngineOptionsFor() {
  stream::EngineOptions options;
  options.tick = 1.0;
  options.sink_history = 4;
  return options;
}

double CalibrateCapacity(const WorkloadSpec& spec) {
  const OfferGenerator generator(spec, kCalibrationSeed);
  const cluster::ShardRouter router(cluster::RoutingPolicy::kHashUser,
                                    kShards);
  const std::vector<cluster::ShardStatus> statuses(kShards);
  std::vector<std::unique_ptr<stream::Engine>> engines;
  for (int s = 0; s < kShards; ++s) {
    engines.push_back(std::make_unique<stream::Engine>(EngineOptionsFor()));
    STREAMBID_CHECK(
        ConfigureEngine(spec, kCalibrationSeed, *engines.back()).ok());
  }
  double demand = 0.0;
  int64_t next = 0;
  for (int p = 0; p < kCalibrationPeriods; ++p) {
    std::vector<std::vector<stream::QuerySubmission>> batches(kShards);
    for (int i = 0; i < spec.offers_per_period; ++i) {
      stream::QuerySubmission sub = generator.Make(next++);
      const int s = router.Route(sub, statuses);
      batches[static_cast<size_t>(s)].push_back(std::move(sub));
    }
    for (int s = 0; s < kShards; ++s) {
      if (batches[static_cast<size_t>(s)].empty()) continue;
      const Result<stream::AuctionBuild> build = stream::BuildAuctionInstance(
          *engines[static_cast<size_t>(s)], batches[static_cast<size_t>(s)],
          stream::LoadEstimateOptions{});
      STREAMBID_CHECK(build.ok());
      demand += build->instance.total_union_load();
    }
  }
  STREAMBID_CHECK_GT(demand, 0.0);
  return spec.capacity_fraction * demand / kCalibrationPeriods;
}

cluster::ClusterOptions MakeClusterOptions(const WorkloadSpec& spec,
                                           uint64_t seed,
                                           double total_capacity,
                                           int pool_threads,
                                           telemetry::PeriodTracer* tracer) {
  cluster::ClusterOptions options;
  options.num_shards = kShards;
  options.total_capacity = total_capacity;
  options.routing = cluster::RoutingPolicy::kHashUser;
  options.mechanism = spec.mechanism;
  options.period_length = spec.period_length;
  options.seed = seed;
  options.engine_options = EngineOptionsFor();
  options.executor_threads = pool_threads;
  options.tracer = tracer;
  if (spec.hot_tenants) {
    options.rebalance.enabled = true;
    options.rebalance.max_moves_per_period = 2;
    options.rebalance.min_history_periods = 2;
    options.rebalance.tenant_cooldown_periods = 3;
    options.rebalance.seed = seed;
    options.autoscale.enabled = true;
  }
  return options;
}

gate::IngressOptions MakeIngressOptions(const WorkloadSpec& spec,
                                        telemetry::PeriodTracer* tracer) {
  gate::IngressOptions options;
  options.tenant_classes = kTenantClasses;
  // A whole batch fits in either class pool, so the gate never sheds.
  options.tickets_per_class = spec.offers_per_period;
  options.tracer = tracer;
  return options;
}

}  // namespace streambid::bench::e2e
