// Copyright 2026 The streambid Authors

#include "bench/bench_common.h"

#include <cstdio>

#include "common/check.h"
#include "common/string_util.h"
#include "common/table.h"

namespace streambid::bench {

std::vector<int> BenchConfig::Degrees() const {
  return workload::WorkloadSet::SharingSweep(params.base_max_sharing, step);
}

BenchConfig LoadConfig() {
  BenchConfig config;
  config.sets = static_cast<int>(EnvInt("STREAMBID_SETS", 6));
  config.queries = static_cast<int>(EnvInt("STREAMBID_QUERIES", 2000));
  config.step = static_cast<int>(EnvInt("STREAMBID_STEP", 5));
  config.trials = static_cast<int>(EnvInt("STREAMBID_TRIALS", 3));
  STREAMBID_CHECK_GT(config.sets, 0);
  STREAMBID_CHECK_GT(config.queries, 0);
  STREAMBID_CHECK_GT(config.step, 0);
  STREAMBID_CHECK_GT(config.trials, 0);
  config.params.num_queries = config.queries;
  // Keep the paper's 2000:700 query:operator ratio at other scales.
  config.params.base_num_operators =
      std::max(1, config.queries * 700 / 2000);
  return config;
}

MetricFn ProfitMetric() {
  return [](const service::AdmissionResponse& response) {
    return response.metrics.profit;
  };
}

MetricFn AdmissionRateMetric() {
  return [](const service::AdmissionResponse& response) {
    return response.metrics.admission_rate;
  };
}

MetricFn PayoffMetric() {
  return [](const service::AdmissionResponse& response) {
    return response.metrics.total_payoff;
  };
}

MetricFn UtilizationMetric() {
  return [](const service::AdmissionResponse& response) {
    return response.metrics.utilization;
  };
}

SweepResult RunSweep(service::AdmissionService& service,
                     const BenchConfig& config,
                     const std::vector<std::string>& mechanisms,
                     const std::vector<double>& capacities,
                     const MetricFn& metric) {
  const std::vector<int> degrees = config.Degrees();

  // Resolve trial counts once (randomized mechanisms are averaged).
  std::vector<int> trials_for;
  for (const std::string& name : mechanisms) {
    auto properties = service.Properties(name);
    STREAMBID_CHECK(properties.ok());
    trials_for.push_back(properties->randomized ? config.trials : 1);
  }

  SweepResult result;
  for (double cap : capacities) {
    for (const std::string& name : mechanisms) {
      result[cap][name].assign(degrees.size(), 0.0);
    }
  }

  for (int set = 0; set < config.sets; ++set) {
    workload::WorkloadSet ws(config.params,
                             /*seed=*/0xBEEF0000ull + set);
    for (size_t d = 0; d < degrees.size(); ++d) {
      const auction::AuctionInstance& inst = ws.InstanceAt(degrees[d]);

      // The whole capacities x mechanisms x trials grid for this
      // instance goes down as one batch; each request keeps its own
      // (seed, trial) stream, so results are independent of batch
      // order — the contract that lets AdmitBatch parallelize later.
      std::vector<service::AdmissionRequest> requests;
      for (double cap : capacities) {
        for (size_t m = 0; m < mechanisms.size(); ++m) {
          for (int t = 0; t < trials_for[m]; ++t) {
            service::AdmissionRequest request;
            request.instance = &inst;
            request.capacity = cap;
            request.mechanism = mechanisms[m];
            request.seed = 0xC0FFEEull * (set + 1) + 31 * d + 7 * m;
            request.request_index = static_cast<uint32_t>(t);
            requests.push_back(std::move(request));
          }
        }
      }
      auto responses = service.AdmitBatch(requests);
      STREAMBID_CHECK(responses.ok());

      size_t r = 0;
      for (double cap : capacities) {
        for (size_t m = 0; m < mechanisms.size(); ++m) {
          double acc = 0.0;
          for (int t = 0; t < trials_for[m]; ++t, ++r) {
            acc += metric((*responses)[r]);
          }
          result[cap][mechanisms[m]][d] += acc / trials_for[m];
        }
      }
    }
  }
  for (double cap : capacities) {
    for (const std::string& name : mechanisms) {
      for (double& v : result[cap][name]) v /= config.sets;
    }
  }
  return result;
}

void PrintSeries(const BenchConfig& config, const SweepResult& result,
                 double capacity,
                 const std::vector<std::string>& mechanisms) {
  const std::vector<int> degrees = config.Degrees();
  std::vector<std::string> header = {"max_degree"};
  for (const std::string& m : mechanisms) header.push_back(m);
  TextTable table(header);
  for (size_t d = 0; d < degrees.size(); ++d) {
    std::vector<std::string> row = {std::to_string(degrees[d])};
    for (const std::string& m : mechanisms) {
      row.push_back(FormatDouble(result.at(capacity).at(m)[d], 3));
    }
    table.AddRow(std::move(row));
  }
  std::fputs(table.ToCsv().c_str(), stdout);
}

std::string CrossoverDegree(const BenchConfig& config,
                            const SweepResult& result, double capacity,
                            const std::string& a, const std::string& b) {
  const std::vector<int> degrees = config.Degrees();
  const auto& sa = result.at(capacity).at(a);
  const auto& sb = result.at(capacity).at(b);
  for (size_t d = 0; d < degrees.size(); ++d) {
    if (sa[d] > sb[d]) return std::to_string(degrees[d]);
  }
  return "-";
}

void PrintBanner(const std::string& title, const BenchConfig& config) {
  std::printf("# %s\n", title.c_str());
  std::printf(
      "# workload: %d sets x %d queries, sharing degrees step %d "
      "(paper: 50 sets; override with STREAMBID_SETS/QUERIES/STEP)\n",
      config.sets, config.queries, config.step);
}

void WriteBenchJson(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics) {
  // An empty or all-zero artifact means the bench measured nothing
  // (e.g. a capacity that never binds at this scale): fail loudly
  // instead of recording a flat line in the trajectory.
  STREAMBID_CHECK(!metrics.empty());
  bool any_nonzero = false;
  for (const auto& [key, value] : metrics) {
    any_nonzero = any_nonzero || value != 0.0;
  }
  STREAMBID_CHECK(any_nonzero);
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  STREAMBID_CHECK(f != nullptr);
  std::fprintf(f, "{\n  \"bench\": \"%s\"", name.c_str());
  for (const auto& [key, value] : metrics) {
    std::fprintf(f, ",\n  \"%s\": %.6g", key.c_str(), value);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("# wrote %s\n", path.c_str());
}

}  // namespace streambid::bench
