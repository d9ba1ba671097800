// Copyright 2026 The streambid Authors
// Quickstart: the paper's Example 1 (§II) on the admission service API.
//
// Three continuous queries are submitted to a DSMS with capacity 10:
//   q1 = {A, B} bid $55;  q2 = {A, C} bid $72;  q3 = {D, E} bid $100,
// with loads A=4, B=1, C=2, D=6, E=4 and operator A shared by q1/q2.
// One AdmitAll call auctions the instance under every registered
// mechanism and returns winners, payments, the §VI metrics, and the
// mechanism's wall clock. Expected (paper §IV): CAR charges $10/$60,
// CAF $30/$40, CAT $50/$60, all admitting {q1, q2}.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "common/table.h"
#include "service/admission_service.h"

int main() {
  using namespace streambid;
  using auction::AuctionInstance;

  // --- Describe the instance: operators (loads) and queries
  //     (user, bid, operator set). -----------------------------------
  auto instance_or = AuctionInstance::Create(
      /*operators=*/{{4.0}, {1.0}, {2.0}, {6.0}, {4.0}},  // A B C D E
      /*queries=*/{
          {/*user=*/1, /*bid=*/55.0, /*operators=*/{0, 1}},   // q1
          {/*user=*/2, /*bid=*/72.0, /*operators=*/{0, 2}},   // q2
          {/*user=*/3, /*bid=*/100.0, /*operators=*/{3, 4}},  // q3
      });
  if (!instance_or.ok()) {
    std::fprintf(stderr, "bad instance: %s\n",
                 instance_or.status().ToString().c_str());
    return 1;
  }
  const AuctionInstance& instance = *instance_or;
  const double capacity = 10.0;

  std::printf("%s\n", instance.Summary().c_str());
  std::printf("derived loads: q1 CT=%.0f CSF=%.0f | q2 CT=%.0f CSF=%.0f "
              "| q3 CT=%.0f CSF=%.0f\n\n",
              instance.total_load(0), instance.fair_share_load(0),
              instance.total_load(1), instance.fair_share_load(1),
              instance.total_load(2), instance.fair_share_load(2));

  // --- One request/response call per registered mechanism. ----------
  service::AdmissionService service;
  auto responses = service.AdmitAll(instance, capacity, /*seed=*/2026);
  if (!responses.ok()) {
    std::fprintf(stderr, "admission failed: %s\n",
                 responses.status().ToString().c_str());
    return 1;
  }

  TextTable table({"mechanism", "winners", "p(q1)", "p(q2)", "p(q3)",
                   "profit", "payoff", "admission", "ms"});
  for (const service::AdmissionResponse& response : *responses) {
    const auction::Allocation& alloc = response.allocation;
    std::string winners;
    for (auction::QueryId q = 0; q < instance.num_queries(); ++q) {
      if (alloc.IsAdmitted(q)) {
        winners += (winners.empty() ? "q" : ",q") + std::to_string(q + 1);
      }
    }
    table.AddRow({alloc.mechanism,
                  winners.empty() ? "-" : winners,
                  FormatDouble(alloc.Payment(0), 2),
                  FormatDouble(alloc.Payment(1), 2),
                  FormatDouble(alloc.Payment(2), 2),
                  FormatDouble(response.metrics.profit, 2),
                  FormatDouble(response.metrics.total_payoff, 2),
                  FormatPercent(response.metrics.admission_rate, 0),
                  FormatDouble(response.elapsed_ms, 3)});
  }
  std::fputs(table.ToAligned().c_str(), stdout);
  std::printf("\npaper walkthrough: CAR $10/$60, CAF $30/$40, CAT "
              "$50/$60 — all admit {q1, q2} and reject q3.\n");
  return 0;
}
