// Copyright 2026 The streambid Authors

#include "gametheory/sybil.h"

#include "common/rng.h"
#include "gametheory/payoff.h"

namespace streambid::gametheory {

SybilAttack FairShareAttack(const auction::AuctionInstance& instance,
                            auction::QueryId attacker_query, int num_fakes,
                            double fake_valuation) {
  SybilAttack attack;
  const auction::UserId attacker = instance.user(attacker_query);
  for (int k = 0; k < num_fakes; ++k) {
    auction::QuerySpec fake;
    fake.user = attacker;  // Payoff attribution only.
    fake.bid = fake_valuation;
    fake.operators = instance.query_operators(attacker_query);
    attack.fake_queries.push_back(std::move(fake));
  }
  return attack;
}

Result<SybilReport> EvaluateSybilAttack(
    service::AdmissionService& service, std::string_view mechanism,
    const auction::AuctionInstance& instance, double capacity,
    auction::UserId attacker, const SybilAttack& attack, uint64_t seed,
    int trials) {
  SybilReport report;
  const std::vector<double> values = TruthfulValues(instance);
  report.payoff_without_attack =
      ExpectedUserPayoff(service, mechanism, instance, capacity, values,
                         attacker, seed, trials);

  STREAMBID_ASSIGN_OR_RETURN(
      auction::AuctionInstance attacked,
      instance.WithExtraOperators(attack.new_operators,
                                  attack.fake_queries));
  // Fake queries are worth nothing to the attacker. Both evaluations
  // share (seed, trial) streams — common random numbers, so randomized
  // mechanisms compare the attack, not partition luck.
  std::vector<double> attacked_values = values;
  attacked_values.resize(static_cast<size_t>(attacked.num_queries()), 0.0);
  report.payoff_with_attack =
      ExpectedUserPayoff(service, mechanism, attacked, capacity,
                         attacked_values, attacker, seed, trials);
  return report;
}

SybilReport SearchSybilAttacks(service::AdmissionService& service,
                               std::string_view mechanism,
                               const auction::AuctionInstance& instance,
                               double capacity, uint64_t seed,
                               int max_attackers, int trials) {
  std::vector<auction::QueryId> attackers;
  for (auction::QueryId i = 0; i < instance.num_queries(); ++i) {
    attackers.push_back(i);
  }
  Rng sampler(seed ^ 0x5B11A77Cull);
  sampler.Shuffle(attackers);
  if (max_attackers > 0 &&
      max_attackers < static_cast<int>(attackers.size())) {
    attackers.resize(static_cast<size_t>(max_attackers));
  }

  SybilReport best;
  bool first = true;
  for (auction::QueryId q : attackers) {
    for (int fakes : {1, 2, 5, 10}) {
      for (double fake_value : {1e-6, 0.5, 1.0}) {
        const SybilAttack attack =
            FairShareAttack(instance, q, fakes, fake_value);
        auto result = EvaluateSybilAttack(service, mechanism, instance,
                                          capacity, instance.user(q),
                                          attack, seed, trials);
        if (!result.ok()) continue;
        if (first || result->Gain() > best.Gain()) {
          best = *result;
          first = false;
        }
      }
    }
  }
  return best;
}

}  // namespace streambid::gametheory
