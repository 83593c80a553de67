#include "analysis/reward_cases.h"

#include <gtest/gtest.h>

namespace ethsm::analysis {
namespace {

using chain::MinerClass;
using markov::MiningParams;
using markov::State;
using markov::TransitionKind;

const rewards::RewardConfig kByz = rewards::RewardConfig::ethereum_byzantium();
const MiningParams kParams{0.3, 0.5};

TEST(HonestNephewProbability, MatchesAppendixBFormula) {
  const double a = kParams.alpha;
  const double b = kParams.beta();
  const double g = kParams.gamma;
  EXPECT_NEAR(honest_nephew_probability(kParams, 2),
              b * (1 + a * b * (1 - g)), 1e-15);
  EXPECT_NEAR(honest_nephew_probability(kParams, 5),
              b * b * b * b * (1 + a * b * (1 - g)), 1e-15);
}

TEST(HonestNephewProbability, IsAProbability) {
  for (double alpha : {0.05, 0.25, 0.45}) {
    for (double gamma : {0.0, 0.5, 1.0}) {
      for (int lead = 2; lead <= 10; ++lead) {
        const double p =
            honest_nephew_probability(MiningParams{alpha, gamma}, lead);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
      }
    }
  }
}

TEST(RewardCases, Case1HonestStaticOnly) {
  const auto f = expected_rewards(State{0, 0},
                                  TransitionKind::honest_at_consensus, kParams,
                                  kByz);
  EXPECT_DOUBLE_EQ(f.honest_static, 1.0);
  EXPECT_DOUBLE_EQ(f.pool_total(), 0.0);
  EXPECT_DOUBLE_EQ(f.regular_probability, 1.0);
  EXPECT_DOUBLE_EQ(f.referenced_uncle_probability, 0.0);
}

TEST(RewardCases, Case2SplitsRegularAndUncle) {
  const double a = kParams.alpha;
  const double b = kParams.beta();
  const double g = kParams.gamma;
  const auto f = expected_rewards(State{0, 0}, TransitionKind::pool_first_lead,
                                  kParams, kByz);
  const double p_regular = a + a * b + b * b * g;
  const double p_uncle = b * b * (1 - g);
  EXPECT_NEAR(f.regular_probability + f.referenced_uncle_probability, 1.0,
              1e-15);
  EXPECT_NEAR(f.pool_static, p_regular, 1e-15);
  EXPECT_NEAR(f.pool_uncle, p_uncle * 7.0 / 8.0, 1e-15);
  // The nephew of the pool's lost block is always honest (distance 1).
  EXPECT_NEAR(f.honest_nephew, p_uncle / 32.0, 1e-15);
  EXPECT_DOUBLE_EQ(f.pool_nephew, 0.0);
  EXPECT_EQ(f.uncle_distance, 1);
  EXPECT_EQ(f.target_owner, MinerClass::selfish);
}

TEST(RewardCases, Case3And6PoolCertainRegular) {
  for (const State s : {State{1, 0}, State{4, 0}, State{5, 2}}) {
    const auto f = expected_rewards(s, TransitionKind::pool_extend_lead,
                                    kParams, kByz);
    EXPECT_DOUBLE_EQ(f.pool_static, 1.0);
    EXPECT_DOUBLE_EQ(f.regular_probability, 1.0);
    EXPECT_DOUBLE_EQ(f.honest_total(), 0.0);
  }
}

TEST(RewardCases, Case4NephewSplit) {
  const double a = kParams.alpha;
  const double b = kParams.beta();
  const double g = kParams.gamma;
  const auto f = expected_rewards(State{1, 0}, TransitionKind::honest_match,
                                  kParams, kByz);
  EXPECT_NEAR(f.honest_static, b * (1 - g), 1e-15);
  EXPECT_NEAR(f.honest_uncle, (a + b * g) * 7.0 / 8.0, 1e-15);
  // Pool wins the nephew with probability a, honest with bg (Appendix B).
  EXPECT_NEAR(f.pool_nephew, a / 32.0, 1e-15);
  EXPECT_NEAR(f.honest_nephew, b * g / 32.0, 1e-15);
}

TEST(RewardCases, Case5BothRegular) {
  const auto fp = expected_rewards(State{1, 1}, TransitionKind::pool_win_tie,
                                   kParams, kByz);
  EXPECT_DOUBLE_EQ(fp.pool_static, 1.0);
  const auto fh = expected_rewards(State{1, 1},
                                   TransitionKind::honest_resolve_tie, kParams,
                                   kByz);
  EXPECT_DOUBLE_EQ(fh.honest_static, 1.0);
}

TEST(RewardCases, Case9UncleAtDistanceTwo) {
  const auto f = expected_rewards(
      State{2, 0}, TransitionKind::honest_resolve_lead2_nofork, kParams, kByz);
  EXPECT_EQ(f.uncle_distance, 2);
  EXPECT_DOUBLE_EQ(f.referenced_uncle_probability, 1.0);
  EXPECT_NEAR(f.honest_uncle, 6.0 / 8.0, 1e-15);
  const double h = honest_nephew_probability(kParams, 2);
  EXPECT_NEAR(f.honest_nephew, h / 32.0, 1e-15);
  EXPECT_NEAR(f.pool_nephew, (1 - h) / 32.0, 1e-15);
}

TEST(RewardCases, Case8MatchesCase9) {
  const auto f8 = expected_rewards(
      State{5, 3}, TransitionKind::honest_resolve_lead2_prefix, kParams, kByz);
  const auto f9 = expected_rewards(
      State{2, 0}, TransitionKind::honest_resolve_lead2_nofork, kParams, kByz);
  EXPECT_DOUBLE_EQ(f8.honest_uncle, f9.honest_uncle);
  EXPECT_DOUBLE_EQ(f8.pool_nephew, f9.pool_nephew);
  EXPECT_EQ(f8.uncle_distance, 2);
}

TEST(RewardCases, Case10DistanceEqualsLead) {
  const auto f = expected_rewards(State{4, 0},
                                  TransitionKind::honest_first_fork, kParams,
                                  kByz);
  EXPECT_EQ(f.uncle_distance, 4);
  EXPECT_NEAR(f.honest_uncle, 4.0 / 8.0, 1e-15);  // Ku(4) = (8-4)/8
  const double h = honest_nephew_probability(kParams, 4);
  EXPECT_NEAR(f.honest_nephew, h / 32.0, 1e-15);
}

TEST(RewardCases, Case7DistanceEqualsLeadMinusFork) {
  const auto f = expected_rewards(State{7, 3},
                                  TransitionKind::honest_prefix_reroot,
                                  kParams, kByz);
  EXPECT_EQ(f.uncle_distance, 4);  // i - j
  EXPECT_NEAR(f.honest_uncle, 4.0 / 8.0, 1e-15);
}

TEST(RewardCases, Cases11And12PayNothing) {
  const auto f11 = expected_rewards(State{6, 2},
                                    TransitionKind::honest_fork_extend,
                                    kParams, kByz);
  EXPECT_DOUBLE_EQ(f11.pool_total() + f11.honest_total(), 0.0);
  EXPECT_DOUBLE_EQ(f11.referenced_uncle_probability, 0.0);
  const auto f12 = expected_rewards(
      State{4, 2}, TransitionKind::honest_resolve_lead2_fork, kParams, kByz);
  EXPECT_DOUBLE_EQ(f12.pool_total() + f12.honest_total(), 0.0);
}

TEST(RewardCases, BeyondHorizonBecomesPlainStale) {
  // A lead-9 first fork locks distance 9 > 6: never referenced, no rewards.
  const auto f = expected_rewards(State{9, 0},
                                  TransitionKind::honest_first_fork, kParams,
                                  kByz);
  EXPECT_EQ(f.uncle_distance, 9);
  EXPECT_DOUBLE_EQ(f.referenced_uncle_probability, 0.0);
  EXPECT_DOUBLE_EQ(f.honest_uncle, 0.0);
  EXPECT_DOUBLE_EQ(f.pool_nephew + f.honest_nephew, 0.0);
}

TEST(RewardCases, BitcoinConfigZeroesUncleEconomy) {
  const auto btc = rewards::RewardConfig::bitcoin();
  for (const auto kind :
       {TransitionKind::pool_first_lead, TransitionKind::honest_match,
        TransitionKind::honest_first_fork}) {
    const State s = kind == TransitionKind::honest_first_fork ? State{3, 0}
                    : kind == TransitionKind::honest_match    ? State{1, 0}
                                                              : State{0, 0};
    const auto f = expected_rewards(s, kind, kParams, btc);
    EXPECT_DOUBLE_EQ(f.pool_uncle, 0.0);
    EXPECT_DOUBLE_EQ(f.honest_uncle, 0.0);
    EXPECT_DOUBLE_EQ(f.pool_nephew, 0.0);
    EXPECT_DOUBLE_EQ(f.honest_nephew, 0.0);
    EXPECT_DOUBLE_EQ(f.referenced_uncle_probability, 0.0);
  }
}

TEST(RewardCases, FlatScheduleChangesUncleValueNotStructure) {
  const auto flat = rewards::RewardConfig::ethereum_flat(0.5);
  const auto f = expected_rewards(State{4, 0},
                                  TransitionKind::honest_first_fork, kParams,
                                  flat);
  EXPECT_NEAR(f.honest_uncle, 0.5, 1e-15);  // flat Ku regardless of d = 4
  EXPECT_EQ(f.uncle_distance, 4);
}

TEST(RewardCases, ExpectedRewardNeverExceedsMaxPayout) {
  // Per transition, total expected reward <= Ks + Ku(1) + Kn(1).
  const double cap = 1.0 + 7.0 / 8.0 + 1.0 / 32.0;
  for (double alpha : {0.1, 0.3, 0.45}) {
    for (double gamma : {0.0, 0.5, 1.0}) {
      const MiningParams p{alpha, gamma};
      markov::StateSpace space(20);
      markov::TransitionModel model(space, p);
      const auto& row = model.row_offsets();
      for (int s = 0; s < space.size(); ++s) {
        for (std::uint32_t e = row[static_cast<std::size_t>(s)];
             e < row[static_cast<std::size_t>(s) + 1]; ++e) {
          const auto f =
              expected_rewards(space.state_at(s), model.kinds()[e], p, kByz);
          EXPECT_LE(f.pool_total() + f.honest_total(), cap + 1e-12);
          EXPECT_GE(f.pool_total(), 0.0);
          EXPECT_GE(f.honest_total(), 0.0);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ethsm::analysis
