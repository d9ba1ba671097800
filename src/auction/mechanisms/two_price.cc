// Copyright 2026 The streambid Authors

#include "auction/mechanisms/two_price.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "auction/admitted_set.h"
#include "auction/greedy_common.h"
#include "common/check.h"

namespace streambid::auction {
namespace {

/// Step 3 cost cap: if |D| exceeds this, fall back to skipping Step 3
/// (documented substitution — with integer Zipf valuations the boundary
/// tie class can hold hundreds of queries, and 2^|D| subsets are not
/// enumerable; the paper's guarantee degrades gracefully to the
/// Theorem 12 bound in exactly this case).
constexpr size_t kMaxExhaustiveDuplicates = 16;

/// Computes the optimal single-price profit of a valuation multiset
/// sorted non-increasingly: max_i i * v_i (1-based), returning the price
/// v_i at the argmax (0 when empty). This is Step 5 of Algorithm 3.
double OptimalSinglePrice(const std::vector<double>& sorted_desc,
                          double* best_profit) {
  double best = 0.0;
  double price = 0.0;
  for (size_t i = 0; i < sorted_desc.size(); ++i) {
    const double profit = static_cast<double>(i + 1) * sorted_desc[i];
    if (profit > best) {
      best = profit;
      price = sorted_desc[i];
    }
  }
  if (best_profit != nullptr) *best_profit = best;
  return price;
}

class TwoPriceMechanism : public Mechanism {
 public:
  TwoPriceMechanism(std::string name, bool exhaustive_step3)
      : name_(std::move(name)), exhaustive_step3_(exhaustive_step3) {}

  const std::string& name() const override { return name_; }

  MechanismProperties properties() const override {
    MechanismProperties p;
    p.strategyproof = true;
    p.sybil_immune = false;  // §V-C: vulnerable (Theorem 20).
    p.profit_guarantee = true;
    p.randomized = true;
    return p;
  }

  Allocation Run(const AuctionInstance& instance, double capacity,
                 AuctionContext& context) const override {
    const int n = instance.num_queries();
    Allocation alloc = MakeEmptyAllocation(name_, capacity, n);
    if (n == 0) return alloc;

    // Steps 1-2: greedy-by-valuation candidate set H (maximal prefix of
    // the bid-sorted list that fits; union loads, shared ops counted
    // once).
    const std::vector<QueryId>& order =
        PriorityOrder(instance, LoadBasis::kUnit, context.workspace());
    const GreedyScan scan =
        RunGreedyScan(instance, capacity, order, MisfitPolicy::kStop);
    std::vector<QueryId> h;
    for (size_t p = 0; p < order.size(); ++p) {
      if (scan.admitted[static_cast<size_t>(order[p])]) {
        h.push_back(order[p]);
      } else {
        break;  // kStop: everything from here on is in L.
      }
    }

    // Step 3: duplicate adjustment at the H/L boundary.
    if (exhaustive_step3_ && scan.first_loser_pos >= 0 && !h.empty()) {
      const QueryId first_lost =
          order[static_cast<size_t>(scan.first_loser_pos)];
      const double v_l = instance.bid(first_lost);
      if (instance.bid(h.back()) == v_l) {
        AdjustDuplicates(instance, capacity, v_l, &h);
      }
    }

    // Step 4: random even partition of H into A and B.
    std::vector<QueryId> shuffled = h;
    context.rng().Shuffle(shuffled);
    const size_t half = (shuffled.size() + 1) / 2;
    std::vector<QueryId> a(shuffled.begin(),
                           shuffled.begin() + static_cast<long>(half));
    std::vector<QueryId> b(shuffled.begin() + static_cast<long>(half),
                           shuffled.end());

    // Step 5: optimal single price within each half.
    std::vector<double>& vals = context.workspace().values;
    const double price_a = HalfPrice(instance, a, vals);
    const double price_b = HalfPrice(instance, b, vals);

    // Step 6: cross-application. Winners of B beat price_a and pay it;
    // winners of A beat price_b and pay it.
    for (QueryId q : b) {
      if (instance.bid(q) > price_a) {
        alloc.admitted[static_cast<size_t>(q)] = true;
        alloc.payments[static_cast<size_t>(q)] = price_a;
      }
    }
    for (QueryId q : a) {
      if (instance.bid(q) > price_b) {
        alloc.admitted[static_cast<size_t>(q)] = true;
        alloc.payments[static_cast<size_t>(q)] = price_b;
      }
    }
    return alloc;
  }

 private:
  static double HalfPrice(const AuctionInstance& instance,
                          const std::vector<QueryId>& half,
                          std::vector<double>& vals) {
    vals.clear();
    vals.reserve(half.size());
    for (QueryId q : half) vals.push_back(instance.bid(q));
    std::sort(vals.begin(), vals.end(), std::greater<double>());
    return OptimalSinglePrice(vals, nullptr);
  }

  /// Step 3: D = every query valued exactly v_l; H' = H - D; replace H by
  /// H' plus the largest-cardinality subset of D that fits alongside H'
  /// (ties broken by higher total value, then deterministically).
  void AdjustDuplicates(const AuctionInstance& instance, double capacity,
                        double v_l, std::vector<QueryId>* h) const {
    std::vector<QueryId> d;
    for (QueryId i = 0; i < instance.num_queries(); ++i) {
      if (instance.bid(i) == v_l) d.push_back(i);
    }
    if (d.size() > kMaxExhaustiveDuplicates) {
      // Documented fallback: enumeration infeasible; behave like the
      // polynomial variant (keep H as computed by Step 2).
      return;
    }
    std::vector<QueryId> h_prime;
    for (QueryId q : *h) {
      if (instance.bid(q) != v_l) h_prime.push_back(q);
    }

    // Base set admitted once; each subset trial copies it (the copy is a
    // bitset over operators — far cheaper than re-admitting H').
    AdmittedSet base(instance);
    for (QueryId q : h_prime) base.Admit(q);

    const size_t dn = d.size();
    size_t best_mask = 0;
    int best_count = -1;
    for (size_t mask = 0; mask < (1ull << dn); ++mask) {
      AdmittedSet set = base;
      int count = 0;
      bool fits = true;
      for (size_t k = 0; k < dn; ++k) {
        if ((mask >> k) & 1u) {
          const QueryId q = d[k];
          if (!set.Fits(q, capacity)) {
            fits = false;
            break;
          }
          set.Admit(q);
          ++count;
        }
      }
      if (fits && count > best_count) {
        best_count = count;
        best_mask = mask;
      }
    }
    *h = std::move(h_prime);
    for (size_t k = 0; k < dn; ++k) {
      if ((best_mask >> k) & 1u) h->push_back(d[k]);
    }
  }

  std::string name_;
  bool exhaustive_step3_;
};

}  // namespace

MechanismPtr MakeTwoPrice() {
  return std::make_unique<TwoPriceMechanism>("two-price",
                                             /*exhaustive_step3=*/true);
}

MechanismPtr MakeTwoPricePoly() {
  return std::make_unique<TwoPriceMechanism>("two-price-poly",
                                             /*exhaustive_step3=*/false);
}

}  // namespace streambid::auction
