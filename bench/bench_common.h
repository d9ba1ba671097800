// Copyright 2026 The streambid Authors
// Shared scaffolding for the paper-reproduction benches (§VI). Each
// bench binary regenerates one table or figure: it sweeps the Table III
// workload over the maximum degree of sharing, submits the auctions to
// the AdmissionService as one batch per instance, and prints the series
// as CSV (plus a human-readable summary).
//
// Environment knobs (paper values in parentheses):
//   STREAMBID_SETS    — workload sets averaged (50); default 6
//   STREAMBID_QUERIES — queries per instance (2000); default 2000
//   STREAMBID_STEP    — sharing-degree sweep step (1); default 5
//   STREAMBID_TRIALS  — runs per randomized mechanism (—); default 3

#ifndef STREAMBID_BENCH_BENCH_COMMON_H_
#define STREAMBID_BENCH_BENCH_COMMON_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "service/admission_service.h"
#include "workload/params.h"
#include "workload/workload_set.h"

namespace streambid::bench {

/// Bench configuration resolved from the environment.
struct BenchConfig {
  int sets = 6;
  int queries = 2000;
  int step = 5;
  int trials = 3;  ///< Averaging runs for randomized mechanisms.
  workload::WorkloadParams params;

  /// The sharing-degree grid (1, step, 2*step, ..., 60).
  std::vector<int> Degrees() const;
};

/// Reads the env knobs and scales base_num_operators with query count.
BenchConfig LoadConfig();

/// Extracts one scalar from an admission response (profit, admission
/// rate, ...). Responses carry the §VI metrics; benches no longer
/// recompute them.
using MetricFn =
    std::function<double(const service::AdmissionResponse&)>;

/// Canned metric extractors.
MetricFn ProfitMetric();
MetricFn AdmissionRateMetric();
MetricFn PayoffMetric();
MetricFn UtilizationMetric();

/// result[capacity][mechanism][degree_index] = mean metric over sets.
using SweepResult =
    std::map<double, std::map<std::string, std::vector<double>>>;

/// Runs `mechanisms` over the sharing sweep at every capacity,
/// averaging `metric` over the workload sets. Workload derivation is
/// shared across mechanisms and capacities (as in the paper, the same
/// 50 sets are reused everywhere). Randomized mechanisms are averaged
/// over config.trials runs per instance. Each instance's
/// mechanisms x capacities x trials grid is submitted as one
/// AdmissionService::AdmitBatch call.
SweepResult RunSweep(service::AdmissionService& service,
                     const BenchConfig& config,
                     const std::vector<std::string>& mechanisms,
                     const std::vector<double>& capacities,
                     const MetricFn& metric);

/// Prints one capacity's series as CSV: header "max_degree,<mech>..."
/// followed by one row per sharing degree.
void PrintSeries(const BenchConfig& config, const SweepResult& result,
                 double capacity,
                 const std::vector<std::string>& mechanisms);

/// Prints where `a` first overtakes `b` (or "-" if never) — used to
/// report the paper's crossover claims.
std::string CrossoverDegree(const BenchConfig& config,
                            const SweepResult& result, double capacity,
                            const std::string& a, const std::string& b);

/// Prints the standard bench banner (config echo).
void PrintBanner(const std::string& title, const BenchConfig& config);

/// Writes the bench's headline metrics to BENCH_<name>.json in the
/// working directory — the uniform perf artifact every bench emits and
/// CI uploads per PR ({"bench": "<name>", "<key>": <value>, ...}).
/// Metrics keep the caller's order. CHECK-fails if the file cannot be
/// written (an artifact silently missing defeats the trajectory), and
/// if `metrics` is empty or all zero (a series that measured nothing).
void WriteBenchJson(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics);

}  // namespace streambid::bench

#endif  // STREAMBID_BENCH_BENCH_COMMON_H_
