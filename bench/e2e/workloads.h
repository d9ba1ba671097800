// Copyright 2026 The streambid Authors
// The repo benchmark's workloads: one query catalogue, three traffic
// shapes, and the deployment every workload runs on. Sizes are frozen
// here — calibrated once against the timed window, never derived from
// the host — so a run on any machine drives the same inputs.
//
// Every input is a pure function of (workload, seed, offer index): the
// closed loops cut the offer stream into per-period batches, and the
// layer walk and the correctness replay regenerate it. The system under
// test only ever sees the generated submissions.

#ifndef STREAMBID_BENCH_E2E_WORKLOADS_H_
#define STREAMBID_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "cluster/cluster_center.h"
#include "common/zipf.h"
#include "gate/stream_ingress.h"
#include "stream/engine.h"
#include "stream/load_estimator.h"

namespace streambid::telemetry {
class PeriodTracer;
}  // namespace streambid::telemetry

namespace streambid::bench::e2e {

/// Deployment shape shared by every workload. The measured deployment
/// runs its four shard chains on a pool of one: on a pool of two the
/// chains split 2/2 or 3/1 between the workers depending on how fast a
/// parked worker wakes, which made the period times bimodal and their
/// run medians jump between the modes on a shared host. The traced run
/// adds a pass on kParallelPoolThreads for cluster.pool_speedup.
constexpr int kShards = 4;
constexpr int kTenantClasses = 2;
constexpr int kPoolThreads = 1;
constexpr int kParallelPoolThreads = 2;

/// A closed loop: the main thread offers a period's batch, then closes
/// the period.
struct WorkloadSpec {
  const char* name = "";
  int offers_per_period = 0;
  /// Background tenants, drawn Zipf(1.1).
  int tenants = 0;
  /// Distinct selection thresholds per plan shape (D): fewer means
  /// more operator sharing.
  int distinct_thresholds = 0;
  const char* mechanism = "cat";
  double period_length = 0.0;  ///< Virtual seconds per period.
  double source_rate = 0.0;    ///< Tuples per virtual second per source.
  /// Total capacity as a fraction of the demand (see CalibrateCapacity).
  double capacity_fraction = 0.0;
  /// A rotating hot cohort that hashes onto one shard, with the
  /// rebalancer and the autoscaler on.
  bool hot_tenants = false;
  /// Timed periods per requested second of measurement.
  double periods_per_second = 0.0;
};

/// All workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
/// Null when `name` is unknown.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Generates the offer stream of one (workload, seed).
class OfferGenerator {
 public:
  OfferGenerator(const WorkloadSpec& spec, uint64_t seed);

  /// Offer `index` of the stream.
  stream::QuerySubmission Make(int64_t index) const;

 private:
  /// The `member`-th user of the hot cohort of `phase`: user ids that
  /// all hash onto the phase's hot shard.
  auction::UserId HotUser(int64_t phase, int member) const;

  const WorkloadSpec& spec_;
  uint64_t seed_;
  ZipfDistribution tenants_;
};

/// Registers the catalogue's sources (a 6-symbol quote feed and a
/// 32-sensor feed) on one shard engine.
Status ConfigureEngine(const WorkloadSpec& spec, uint64_t seed,
                       stream::Engine& engine);

/// The workload's engine settings (capacity is set by the caller).
stream::EngineOptions EngineOptionsFor();

/// Total capacity of the workload: capacity_fraction times the mean
/// over its first periods of the summed per-shard union load, estimated
/// on fresh engines from a fixed seed (the same for every --seed).
double CalibrateCapacity(const WorkloadSpec& spec);

cluster::ClusterOptions MakeClusterOptions(const WorkloadSpec& spec,
                                           uint64_t seed,
                                           double total_capacity,
                                           int pool_threads,
                                           telemetry::PeriodTracer* tracer);

gate::IngressOptions MakeIngressOptions(const WorkloadSpec& spec,
                                        telemetry::PeriodTracer* tracer);

}  // namespace streambid::bench::e2e

#endif  // STREAMBID_BENCH_E2E_WORKLOADS_H_
