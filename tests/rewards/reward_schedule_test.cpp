#include "rewards/reward_schedule.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ethsm::rewards {
namespace {

TEST(ByzantiumUncleSchedule, MatchesPaperEquation7) {
  ByzantiumUncleSchedule s;
  EXPECT_DOUBLE_EQ(s.reward(1), 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(s.reward(2), 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(s.reward(3), 5.0 / 8.0);
  EXPECT_DOUBLE_EQ(s.reward(4), 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(s.reward(5), 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(s.reward(6), 2.0 / 8.0);
}

TEST(ByzantiumUncleSchedule, ZeroBeyondDistanceSix) {
  ByzantiumUncleSchedule s;
  EXPECT_DOUBLE_EQ(s.reward(7), 0.0);
  EXPECT_DOUBLE_EQ(s.reward(100), 0.0);
  EXPECT_EQ(s.max_distance(), 6);
}

TEST(ByzantiumUncleSchedule, RejectsNonPositiveDistance) {
  ByzantiumUncleSchedule s;
  EXPECT_THROW((void)s.reward(0), std::invalid_argument);
  EXPECT_THROW((void)s.reward(-1), std::invalid_argument);
}

TEST(FlatUncleSchedule, ConstantWithinHorizon) {
  FlatUncleSchedule s(0.5);
  for (int d = 1; d <= 6; ++d) EXPECT_DOUBLE_EQ(s.reward(d), 0.5);
  EXPECT_DOUBLE_EQ(s.reward(7), 0.0);
}

TEST(FlatUncleSchedule, CustomHorizon) {
  FlatUncleSchedule s(0.25, 3);
  EXPECT_DOUBLE_EQ(s.reward(3), 0.25);
  EXPECT_DOUBLE_EQ(s.reward(4), 0.0);
  EXPECT_EQ(s.max_distance(), 3);
}

TEST(FlatUncleSchedule, RejectsBadArguments) {
  EXPECT_THROW(FlatUncleSchedule(-0.1), std::invalid_argument);
  EXPECT_THROW(FlatUncleSchedule(0.5, 0), std::invalid_argument);
}

TEST(FlatUncleSchedule, NameMentionsEighths) {
  EXPECT_EQ(FlatUncleSchedule(0.5).name(), "Ku = 4/8 flat");
}

TEST(ZeroUncleSchedule, AlwaysZero) {
  ZeroUncleSchedule s;
  EXPECT_DOUBLE_EQ(s.reward(1), 0.0);
  EXPECT_EQ(s.max_distance(), 0);
}

TEST(TableUncleSchedule, LooksUpValues) {
  TableUncleSchedule s({0.1, 0.9, 0.3}, "custom");
  EXPECT_DOUBLE_EQ(s.reward(1), 0.1);
  EXPECT_DOUBLE_EQ(s.reward(2), 0.9);
  EXPECT_DOUBLE_EQ(s.reward(3), 0.3);
  EXPECT_DOUBLE_EQ(s.reward(4), 0.0);
  EXPECT_EQ(s.max_distance(), 3);
  EXPECT_EQ(s.name(), "custom");
}

TEST(TableUncleSchedule, RejectsEmptyOrNegative) {
  EXPECT_THROW(TableUncleSchedule({}, "x"), std::invalid_argument);
  EXPECT_THROW(TableUncleSchedule({-1.0}, "x"), std::invalid_argument);
}

TEST(NephewRewardSchedule, EthereumDefaultIsOneThirtySecond) {
  NephewRewardSchedule n;
  for (int d = 1; d <= 6; ++d) EXPECT_DOUBLE_EQ(n.reward(d), 1.0 / 32.0);
  EXPECT_DOUBLE_EQ(n.reward(7), 0.0);
}

TEST(NephewRewardSchedule, CustomValueAndHorizon) {
  NephewRewardSchedule n(0.05, 2);
  EXPECT_DOUBLE_EQ(n.reward(2), 0.05);
  EXPECT_DOUBLE_EQ(n.reward(3), 0.0);
}

TEST(RewardConfig, ByzantiumFactory) {
  const auto c = RewardConfig::ethereum_byzantium();
  EXPECT_DOUBLE_EQ(c.uncle_reward(1), 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(c.nephew_reward(1), 1.0 / 32.0);
  EXPECT_EQ(c.reference_horizon(), 6);
  EXPECT_EQ(c.max_uncles_per_block, 0);
}

TEST(RewardConfig, FlatFactory) {
  const auto c = RewardConfig::ethereum_flat(0.5);
  EXPECT_DOUBLE_EQ(c.uncle_reward(1), 0.5);
  EXPECT_DOUBLE_EQ(c.uncle_reward(6), 0.5);
  EXPECT_DOUBLE_EQ(c.uncle_reward(7), 0.0);
}

TEST(RewardConfig, BitcoinFactoryHasNoUncleEconomy) {
  const auto c = RewardConfig::bitcoin();
  EXPECT_DOUBLE_EQ(c.uncle_reward(1), 0.0);
  EXPECT_DOUBLE_EQ(c.nephew_reward(1), 0.0);
  EXPECT_EQ(c.reference_horizon(), 0);
}

TEST(Table1Inventory, MatchesPaperTableI) {
  const auto rows = table1_reward_inventory();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].reward_type, "Static Reward");
  EXPECT_TRUE(rows[0].in_ethereum);
  EXPECT_TRUE(rows[0].in_bitcoin);
  EXPECT_TRUE(rows[1].in_ethereum);   // uncle reward: Ethereum only
  EXPECT_FALSE(rows[1].in_bitcoin);
  EXPECT_TRUE(rows[2].in_ethereum);   // nephew reward: Ethereum only
  EXPECT_FALSE(rows[2].in_bitcoin);
  EXPECT_TRUE(rows[3].in_ethereum);   // gas: both
  EXPECT_TRUE(rows[3].in_bitcoin);
}

}  // namespace
}  // namespace ethsm::rewards
