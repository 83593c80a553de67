#include "analysis/uncle_distance.h"

#include "markov/transition_model.h"
#include "rewards/reward_schedule.h"
#include "support/check.h"

namespace ethsm::analysis {

UncleDistanceDistribution honest_uncle_distance_distribution(
    const markov::StationaryDistribution& pi,
    const markov::TransitionModel& model) {
  // Use a Byzantium config purely to obtain uncle probabilities; the
  // distance distribution itself is schedule-independent (distances are a
  // property of the chain dynamics, not of the payout function).
  const auto config = rewards::RewardConfig::ethereum_byzantium();

  UncleDistanceDistribution out;
  double weighted_distance = 0.0;
  const auto& row = model.row_offsets();
  const auto& rates = model.rates();
  const auto& kinds = model.kinds();
  for (int s = 0; s < model.space().size(); ++s) {
    const markov::State& state = model.space().state_at(s);
    for (std::uint32_t e = row[static_cast<std::size_t>(s)];
         e < row[static_cast<std::size_t>(s) + 1]; ++e) {
      const double weight = pi[s] * rates[e];
      if (weight == 0.0) continue;
      const RewardFlow flow =
          expected_rewards(state, kinds[e], model.params(), config);
      if (flow.target_owner != chain::MinerClass::honest ||
          flow.uncle_distance == 0) {
        continue;
      }
      // referenced_uncle_probability is zeroed beyond the horizon by
      // reward_cases; recover the raw uncle probability for the tail rate.
      if (flow.uncle_distance <= rewards::kMaxUncleDistance) {
        const double rate = weight * flow.referenced_uncle_probability;
        out.fraction[static_cast<std::size_t>(flow.uncle_distance)] += rate;
        weighted_distance += rate * flow.uncle_distance;
        out.in_horizon_rate += rate;
      } else {
        // Beyond the horizon the block is certain to stay unreferenced: the
        // would-be-uncle rate equals the transition's full weight for the
        // deterministic-uncle cases (7, 8, 9, 10 all have probability 1).
        out.beyond_horizon_rate += weight;
      }
    }
  }

  if (out.in_horizon_rate > 0.0) {
    for (auto& f : out.fraction) f /= out.in_horizon_rate;
    out.expectation = weighted_distance / out.in_horizon_rate;
  }
  return out;
}

UncleDistanceDistribution honest_uncle_distance_distribution(
    const markov::MiningParams& params, int max_lead) {
  const markov::StateSpace space(max_lead);
  const markov::TransitionModel model(space, params);
  const auto pi = markov::solve_stationary(model);
  return honest_uncle_distance_distribution(pi, model);
}

}  // namespace ethsm::analysis
