// Copyright 2026 The streambid Authors

#include "auction/movement_window.h"

#include "auction/admitted_set.h"
#include "auction/greedy_common.h"
#include "common/check.h"

namespace streambid::auction {

QueryId ComputeLast(const AuctionInstance& instance, double capacity,
                    const std::vector<QueryId>& order, QueryId winner) {
  const size_t n = order.size();
  size_t winner_pos = n;
  for (size_t p = 0; p < n; ++p) {
    if (order[p] == winner) {
      winner_pos = p;
      break;
    }
  }
  STREAMBID_CHECK_LT(winner_pos, n);

  // Mark the winner's operators so the scan below can track how much of
  // its load becomes covered by other admitted queries.
  std::vector<bool> is_winner_op(
      static_cast<size_t>(instance.num_operators()), false);
  for (OperatorId j : instance.query_operators(winner)) {
    is_winner_op[static_cast<size_t>(j)] = true;
  }
  const double winner_total = instance.total_load(winner);

  // Single skip-greedy scan over the priority list with `winner` removed.
  // After each processed entry at an original position beyond winner_pos
  // (a candidate j for "place winner directly after j"), test whether the
  // winner would still fit there.
  AdmittedSet set(instance);
  double covered = 0.0;  // Load of winner's ops admitted via other queries.
  for (size_t p = 0; p < n; ++p) {
    const QueryId q = order[p];
    if (q == winner) continue;
    if (set.Fits(q, capacity)) {
      // Track newly covered winner operators before admitting (Admit
      // flips the shared flags).
      for (OperatorId j : instance.query_operators(q)) {
        auto idx = static_cast<size_t>(j);
        if (is_winner_op[idx] && !set.IsOperatorAdmitted(j)) {
          covered += instance.operator_load(j);
        }
      }
      set.Admit(q);
    }
    if (p > winner_pos) {
      // Candidate: winner re-inserted directly after order[p].
      const double remaining = winner_total - covered;
      if (set.used() + remaining > capacity + kFitEpsilon) {
        return q;  // First position where the winner would lose.
      }
    }
  }
  return kNoQuery;  // Movement window spans the rest of the list.
}

QueryId ComputeLastBruteForce(const AuctionInstance& instance,
                              double capacity,
                              const std::vector<QueryId>& order,
                              QueryId winner) {
  const size_t n = order.size();
  size_t winner_pos = n;
  for (size_t p = 0; p < n; ++p) {
    if (order[p] == winner) {
      winner_pos = p;
      break;
    }
  }
  STREAMBID_CHECK_LT(winner_pos, n);

  for (size_t target = winner_pos + 1; target < n; ++target) {
    // Rebuild the order with `winner` placed directly after order[target].
    std::vector<QueryId> moved;
    moved.reserve(n);
    for (size_t p = 0; p < n; ++p) {
      if (p == winner_pos) continue;
      moved.push_back(order[p]);
      if (order[p] == order[target]) moved.push_back(winner);
    }
    GreedyScan scan =
        RunGreedyScan(instance, capacity, moved, MisfitPolicy::kSkip);
    if (!scan.admitted[static_cast<size_t>(winner)]) {
      return order[target];
    }
  }
  return kNoQuery;
}

}  // namespace streambid::auction
