// Copyright 2026 The streambid Authors
// §VI-B utilization claim: "all proposed mechanisms admit queries so as
// to utilize more than 98 percent of the system capacity, except for
// Two-price which utilizes between 96 percent and 98 percent."
// The claim concerns the CONSTRAINED regime (demand exceeding
// capacity): once everything fits, utilization equals demand/capacity
// for every mechanism. We report the full series at the paper's
// capacity 15000 and at 5000 (which stays constrained much deeper into
// the sharing sweep under our calibration), plus constrained-regime
// means. Both capacities scale with STREAMBID_QUERIES / 2000 (the
// ratio LoadConfig keeps for operators), so smaller runs stay in the
// same regime.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/table.h"

int main() {
  using namespace streambid::bench;
  streambid::service::AdmissionService service;
  const BenchConfig config = LoadConfig();
  PrintBanner("§VI utilization: used capacity / capacity", config);

  const std::vector<std::string> mechanisms = {"caf", "caf+", "cat",
                                               "cat+", "two-price"};
  const double scale = config.queries / 2000.0;
  const std::vector<double> capacities = {5000.0 * scale, 15000.0 * scale};
  const SweepResult result =
      RunSweep(service, config, mechanisms, capacities, UtilizationMetric());

  const std::vector<int> degrees = config.Degrees();
  std::vector<std::pair<std::string, double>> artifact;
  for (double capacity : capacities) {
    std::printf("## capacity %.0f\n", capacity);
    PrintSeries(config, result, capacity, mechanisms);

    // Mean utilization over constrained degrees (where even the most
    // admissive density mechanism is pinned at ~full capacity).
    const auto& series = result.at(capacity);
    std::printf("# constrained-regime mean utilization:\n");
    for (const std::string& m : mechanisms) {
      double acc = 0.0;
      int n = 0;
      for (size_t d = 0; d < degrees.size(); ++d) {
        if (series.at("caf+")[d] > 0.95) {
          acc += series.at(m)[d];
          ++n;
        }
      }
      std::printf("#   %-10s %s\n", m.c_str(),
                  n > 0 ? streambid::FormatPercent(acc / n, 2).c_str()
                        : "(never constrained at this scale)");
      // Capacity 5000 stays constrained deepest into the sweep under
      // our calibration — that's the regime the paper's claim covers.
      if (capacity == capacities[0] && n > 0) {
        artifact.emplace_back("mean_util_cap5000_" + m, acc / n);
      }
    }
  }
  std::printf("# paper: density mechanisms > 98%%, two-price 96-98%% "
              "(constrained regime)\n");
  WriteBenchJson("utilization", artifact);
  return 0;
}
