// Copyright 2026 The streambid Authors
// Stock-monitoring scenario (the paper's §I/§II motivating workload):
// tenants register continuous queries over shared stock-quote and news
// streams; the provider estimates operator loads, auctions admission
// with the sybil-strategyproof CAT mechanism, installs the winners at
// the period boundary (§II), and executes a (compressed) trading
// day — then re-auctions using MEASURED loads.
//
// Build & run:  ./build/examples/stock_monitoring

#include <cstdio>

#include "common/table.h"
#include "service/admission_service.h"
#include "stream/load_estimator.h"
#include "stream/query_builder.h"

int main() {
  using namespace streambid;
  using namespace streambid::stream;

  // --- The shared infrastructure: two hot streams. -------------------
  Engine engine(EngineOptions{/*capacity=*/8.0, /*tick=*/1.0,
                              /*sink_history=*/8});
  const std::vector<std::string> symbols = {"IBM", "AAPL", "MSFT",
                                            "GOOG", "AMZN"};
  (void)engine.RegisterSource(
      MakeStockQuoteSource("quotes", symbols, /*rate=*/150.0, 1));
  (void)engine.RegisterSource(
      MakeNewsSource("news", symbols, /*listed_fraction=*/0.7,
                     /*rate=*/25.0, 2));

  // --- Tenant queries (note the shared select prefixes). --------------
  auto select_quotes = [](double threshold) {
    QueryBuilder b;
    const int src = b.Source("quotes");
    const int sel =
        b.Select(src, "price", CompareOp::kGt, Value(threshold));
    return std::pair<QueryBuilder, int>(std::move(b), sel);
  };

  std::vector<QuerySubmission> submissions;
  // Tenants 1 and 2: the Example-1 pattern — both need high-value
  // quotes (shared operator A), then diverge.
  {
    auto [b, hi] = select_quotes(100.0);
    const int proj = b.Project(hi, {"symbol", "price"});
    submissions.push_back({/*query_id=*/1, /*user=*/1, /*bid=*/55.0,
                           b.Build(proj)});
  }
  {
    auto [b, hi] = select_quotes(100.0);
    const int news = b.Source("news");
    const int listed =
        b.Select(news, "listed", CompareOp::kEq, Value(int64_t{1}));
    const int joined = b.Join(hi, listed, "symbol", "company", 120.0);
    submissions.push_back({2, 2, 72.0, b.Build(joined)});
  }
  // Tenant 3: per-symbol average price over tumbling minutes.
  {
    QueryBuilder b;
    const int src = b.Source("quotes");
    const int agg =
        b.Aggregate(src, AggFn::kAvg, "price", "symbol", {60.0, 60.0});
    submissions.push_back({3, 3, 100.0, b.Build(agg)});
  }
  // Tenant 4: cheap duplicate of tenant 1's filter (pure free-riding on
  // sharing).
  {
    auto [b, hi] = select_quotes(100.0);
    const int proj = b.Project(hi, {"symbol", "price"});
    submissions.push_back({4, 4, 21.0, b.Build(proj)});
  }

  // --- Load estimation -> auction view (§II Figure 2). ----------------
  LoadEstimateOptions load_options;
  auto build = BuildAuctionInstance(engine, submissions, load_options);
  if (!build.ok()) {
    std::fprintf(stderr, "auction build failed: %s\n",
                 build.status().ToString().c_str());
    return 1;
  }
  std::printf("auction view: %s\n", build->instance.Summary().c_str());
  {
    TextTable ops({"op", "load", "shared_by"});
    for (auction::OperatorId j = 0;
         j < build->instance.num_operators(); ++j) {
      ops.AddRow({build->op_signatures[static_cast<size_t>(j)].substr(
                      0, 48),
                  FormatDouble(build->instance.operator_load(j), 2),
                  FormatInt(build->instance.sharing_degree(j))});
    }
    std::fputs(ops.ToAligned().c_str(), stdout);
  }

  // --- Admission auction (CAT: strategyproof + sybil immune). ---------
  service::AdmissionService service;
  service::AdmissionRequest request;
  request.instance = &build->instance;
  request.capacity = engine.options().capacity;
  request.mechanism = "cat";
  request.seed = 7;
  auto response = service.Admit(request);
  if (!response.ok()) {
    std::fprintf(stderr, "admission failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  const auction::Allocation& alloc = response->allocation;
  const auction::AllocationMetrics& metrics = response->metrics;
  std::printf("\nCAT admission at capacity %.0f: profit $%.2f, "
              "admission %s\n",
              engine.options().capacity, metrics.profit,
              FormatPercent(metrics.admission_rate, 0).c_str());

  // --- Period boundary: install winners, execute the day. ------------
  for (size_t i = 0; i < submissions.size(); ++i) {
    if (alloc.IsAdmitted(static_cast<auction::QueryId>(i))) {
      (void)engine.InstallQuery(submissions[i].query_id,
                                submissions[i].plan);
    }
  }
  engine.Run(/*duration=*/600.0);  // A compressed "day".

  TextTable outcome(
      {"tenant", "bid", "admitted", "payment", "output_tuples"});
  for (size_t i = 0; i < submissions.size(); ++i) {
    const auto q = static_cast<auction::QueryId>(i);
    const SinkStats* sink = engine.sink(submissions[i].query_id);
    outcome.AddRow({std::to_string(submissions[i].query_id),
                    FormatDouble(submissions[i].bid, 0),
                    alloc.IsAdmitted(q) ? "yes" : "no",
                    FormatDouble(alloc.Payment(q), 2),
                    sink != nullptr ? FormatInt(sink->tuples) : "-"});
  }
  std::printf("\n");
  std::fputs(outcome.ToAligned().c_str(), stdout);
  std::printf("\nengine: %d runtime nodes (%d shared), measured "
              "utilization %s\n",
              engine.num_runtime_nodes(), engine.num_shared_nodes(),
              FormatPercent(engine.LastRunUtilization(), 1).c_str());

  // --- Re-estimate with measured loads (the §II "reasonably
  //     approximated by the system" loop). -----------------------------
  auto rebuilt = BuildAuctionInstance(engine, submissions, load_options);
  if (rebuilt.ok()) {
    std::printf("\nre-auction with measured loads:\n");
    TextTable diff({"op", "estimated", "measured"});
    for (auction::OperatorId j = 0;
         j < rebuilt->instance.num_operators(); ++j) {
      diff.AddRow(
          {rebuilt->op_signatures[static_cast<size_t>(j)].substr(0, 48),
           FormatDouble(build->instance.operator_load(j), 2),
           FormatDouble(rebuilt->instance.operator_load(j), 2)});
    }
    std::fputs(diff.ToAligned().c_str(), stdout);
  }
  return 0;
}
