// The stubborn deviations of miner::SelfishPolicy (lead, fork, trail), one
// hand-traced case each, plus long random runs of every combination and the
// stubborn list driver. Algorithm 1 itself (the default Strategy) is pinned
// by tests/miner/selfish_policy_test.cpp and by the kernel differential test
// against the frozen transcription.

#include <gtest/gtest.h>

#include "chain/chain_validator.h"
#include "miner/honest_policy.h"
#include "miner/selfish_policy.h"
#include "sim/simulator.h"

namespace ethsm::miner {
namespace {

using chain::BlockId;

class StubbornVariantTest : public ::testing::Test {
 protected:
  StubbornVariantTest()
      : rewards_(rewards::RewardConfig::ethereum_byzantium()),
        honest_(0.5, rewards_) {}

  chain::BlockTree tree_;
  rewards::RewardConfig rewards_;
  HonestPolicy honest_;
  double now_ = 1.0;

  BlockId honest_block(SelfishPolicy& pool, BlockId parent) {
    const BlockId b = honest_.mine_block(tree_, parent, now_, 0);
    pool.on_honest_block(b, now_);
    now_ += 1.0;
    return b;
  }
};

TEST_F(StubbornVariantTest, LeadStubbornRefusesTheOverrideWin) {
  SelfishPolicy pool(tree_, rewards_, {.lead = true});
  pool.on_pool_block(now_++);
  pool.on_pool_block(now_++);  // lead 2
  honest_block(pool, tree_.genesis());
  // Algorithm 1 would publish both blocks and win; lead-stubborn ties at 1.
  EXPECT_EQ(pool.private_length(), 2);
  EXPECT_EQ(pool.published_count(), 1);
  EXPECT_EQ(pool.public_length(), 1);
  EXPECT_EQ(pool.actions().held_lead, 1u);
  EXPECT_EQ(pool.actions().override_publish, 0u);
  // The public race is a genuine tie.
  EXPECT_TRUE(pool.public_view().tie);
}

TEST_F(StubbornVariantTest, EqualForkStubbornKeepsTheWinningBlockSecret) {
  SelfishPolicy pool(tree_, rewards_, {.fork = true});
  pool.on_pool_block(now_++);
  honest_block(pool, tree_.genesis());  // match: tie at 1-1
  ASSERT_TRUE(pool.public_view().tie);
  const BlockId winner = pool.on_pool_block(now_++);
  // Algorithm 1 publishes and wins here ((Ls,Lh) = (2,1)); F stays dark.
  EXPECT_FALSE(tree_.is_published(winner));
  EXPECT_EQ(pool.actions().held_fork, 1u);
  EXPECT_EQ(pool.actions().tie_win, 0u);
  EXPECT_EQ(pool.private_length(), 2);
  EXPECT_EQ(pool.public_length(), 1);
}

TEST_F(StubbornVariantTest, TrailStubbornKeepsMiningFromBehind) {
  SelfishPolicy pool(tree_, rewards_, {.trail = 1});
  pool.on_pool_block(now_++);
  const BlockId h1 = honest_block(pool, tree_.genesis());  // tie 1-1
  honest_block(pool, h1);  // honest ahead by 1: Algorithm 1 would adopt
  EXPECT_EQ(pool.actions().trailed, 1u);
  EXPECT_EQ(pool.actions().adopt, 0u);
  EXPECT_EQ(pool.private_length(), 1);
  EXPECT_EQ(pool.public_length(), 2);
  // Catching up republishes the whole branch, forcing an equal-length race.
  pool.on_pool_block(now_++);
  EXPECT_EQ(pool.actions().caught_up, 1u);
  EXPECT_TRUE(pool.public_view().tie);
}

TEST_F(StubbornVariantTest, TrailStubbornGivesUpBeyondItsDepth) {
  SelfishPolicy pool(tree_, rewards_, {.trail = 1});
  pool.on_pool_block(now_++);
  const BlockId h1 = honest_block(pool, tree_.genesis());
  const BlockId h2 = honest_block(pool, h1);  // behind 1: trail
  const BlockId h3 = honest_block(pool, h2);  // behind 2 > depth: adopt
  EXPECT_EQ(pool.actions().adopt, 1u);
  EXPECT_EQ(pool.fork_base(), h3);
  EXPECT_EQ(pool.private_length(), 0);
}

class StubbornMatrixTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>> {};

TEST_P(StubbornMatrixTest, LongRandomRunStaysStructurallyValid) {
  const auto [lead, fork, trail] = GetParam();
  const auto rewards = rewards::RewardConfig::ethereum_byzantium();
  chain::BlockTree tree;
  SelfishPolicy pool(tree, rewards,
                     {.lead = lead, .fork = fork, .trail = trail});
  HonestPolicy honest(0.5, rewards);
  support::Xoshiro256 schedule(777);
  double now = 1.0;
  for (int i = 0; i < 30000; ++i) {
    const bool pool_mines = schedule.bernoulli(0.4);
    const bool prefer_pool = schedule.bernoulli(0.5);
    if (pool_mines) {
      pool.on_pool_block(now);
    } else {
      const BlockId b = honest.mine_block(
          tree, HonestPolicy::parent_for_preference(pool.public_view(),
                                                    prefer_pool),
          now, 0);
      pool.on_honest_block(b, now);
    }
    now += 1.0;
  }
  const BlockId tip = pool.finalize(1e9);
  const auto report = chain::validate_chain(tree, rewards, tip);
  EXPECT_TRUE(report.ok()) << report.violations.front();
  // Conservation: every block classified exactly once.
  const auto res = chain::settle_rewards(tree, tip, rewards);
  EXPECT_EQ(res.fate_of(chain::MinerClass::selfish).total() +
                res.fate_of(chain::MinerClass::honest).total(),
            tree.size() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, StubbornMatrixTest,
    ::testing::Values(std::make_tuple(true, false, 0),
                      std::make_tuple(false, true, 0),
                      std::make_tuple(false, false, 1),
                      std::make_tuple(false, false, 3),
                      std::make_tuple(true, true, 0),
                      std::make_tuple(true, true, 2)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "L" : "") +
             (std::get<1>(info.param) ? "F" : "") + "T" +
             std::to_string(std::get<2>(info.param));
    });

TEST(StubbornSimulator, DefaultMatchesAlgorithmOneSimulator) {
  // A "selfish" stubborn sweep and run_many run the same seeds through the
  // same machine: identical aggregates, not merely close ones.
  sim::SimConfig config;
  config.alpha = 0.3;
  config.gamma = 0.5;
  config.num_blocks = 50'000;
  config.seed = 99;
  const auto plain = sim::run_many({config}, 2).front();
  const auto stubborn = sim::run_stubborn_many({{config, {}}}, 2).front();
  EXPECT_EQ(plain.pool_revenue(sim::Scenario::regular_rate_one).mean(),
            stubborn.pool_revenue(sim::Scenario::regular_rate_one).mean());
  EXPECT_EQ(plain.uncle_rate.mean(), stubborn.uncle_rate.mean());
}

TEST(StubbornSimulator, TrailStubbornnessChangesTheOutcome) {
  sim::SimConfig config;
  config.alpha = 0.40;
  config.gamma = 0.5;
  config.num_blocks = 50'000;
  config.seed = 5;
  const auto plain = sim::run_simulation(config);
  const auto stubborn = sim::run_simulation(config, {.trail = 2});
  EXPECT_NE(
      plain.pool_absolute_revenue(sim::Scenario::regular_rate_one),
      stubborn.pool_absolute_revenue(sim::Scenario::regular_rate_one));
}

TEST(StubbornSimulator, RejectsHonestPoolMode) {
  sim::SimConfig config;
  config.pool_uses_selfish_strategy = false;
  EXPECT_THROW((void)sim::run_stubborn_many({{config, {}}}, 1),
               std::invalid_argument);
}

TEST(Strategy, NegativeTrailIsRejected) {
  chain::BlockTree tree;
  EXPECT_THROW(SelfishPolicy(tree, rewards::RewardConfig::ethereum_byzantium(),
                             {.trail = -1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ethsm::miner
