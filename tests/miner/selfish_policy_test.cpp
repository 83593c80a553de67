#include "miner/selfish_policy.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "chain/chain_validator.h"
#include "chain/reward_ledger.h"
#include "miner/honest_policy.h"

namespace ethsm::miner {
namespace {

using chain::BlockId;
using chain::MinerClass;

class PolicyFixture : public ::testing::Test {
 protected:
  PolicyFixture()
      : rewards_(rewards::RewardConfig::ethereum_byzantium()),
        pool_(tree_, rewards_),
        honest_(0.5, rewards_) {}

  /// Mines an honest block on `parent` and delivers it to the pool's policy.
  BlockId honest_block(BlockId parent) {
    const BlockId b = honest_.mine_block(tree_, parent, now_, 0);
    pool_.on_honest_block(b, now_);
    now_ += 1.0;
    return b;
  }

  BlockId pool_block() {
    const BlockId b = pool_.on_pool_block(now_);
    now_ += 1.0;
    return b;
  }

  /// Asserts the policy's (Ls, Lh) mirror.
  void expect_state(int ls, int lh) {
    EXPECT_EQ(pool_.private_length(), ls);
    EXPECT_EQ(pool_.public_length(), lh);
  }

  chain::BlockTree tree_;
  rewards::RewardConfig rewards_;
  SelfishPolicy pool_;
  HonestPolicy honest_;
  double now_ = 1.0;
};

TEST_F(PolicyFixture, StartsAtConsensusZeroZero) {
  expect_state(0, 0);
  const auto view = pool_.public_view();
  EXPECT_FALSE(view.tie);
  EXPECT_EQ(view.consensus_tip, tree_.genesis());
}

TEST_F(PolicyFixture, HonestBlockAtConsensusIsAdopted) {
  const BlockId b = honest_block(tree_.genesis());
  expect_state(0, 0);
  EXPECT_EQ(pool_.fork_base(), b);
  EXPECT_EQ(pool_.actions().adopt, 1u);
}

TEST_F(PolicyFixture, PoolBlockIsWithheld) {
  const BlockId b = pool_block();
  expect_state(1, 0);
  EXPECT_FALSE(tree_.is_published(b));
  // Honest miners still see only the genesis.
  EXPECT_EQ(pool_.public_view().consensus_tip, tree_.genesis());
}

TEST_F(PolicyFixture, HonestMatchPublishesThePrivateBlock) {
  const BlockId p = pool_block();
  honest_block(tree_.genesis());
  expect_state(1, 1);
  EXPECT_TRUE(tree_.is_published(p));
  EXPECT_EQ(pool_.actions().match, 1u);
  const auto view = pool_.public_view();
  EXPECT_TRUE(view.tie);
  EXPECT_EQ(view.pool_branch_tip, p);
}

TEST_F(PolicyFixture, PoolWinsAtTwoOne) {
  const BlockId p1 = pool_block();
  const BlockId h1 = honest_block(tree_.genesis());
  const BlockId p2 = pool_block();  // (2,1) -> instant win
  expect_state(0, 0);
  EXPECT_EQ(pool_.fork_base(), p2);
  EXPECT_TRUE(tree_.is_published(p2));
  EXPECT_EQ(pool_.actions().tie_win, 1u);
  // Case 4 subcase 1: the pool's second block references the honest block.
  EXPECT_EQ(tree_.uncle_refs(p2).size(), 1u);
  EXPECT_EQ(tree_.uncle_refs(p2)[0], h1);
  (void)p1;
}

TEST_F(PolicyFixture, HonestWinsTieOnHonestBranch) {
  const BlockId p = pool_block();
  const BlockId h1 = honest_block(tree_.genesis());
  const BlockId h2 = honest_block(h1);  // extends the honest branch: pool adopts
  expect_state(0, 0);
  EXPECT_EQ(pool_.fork_base(), h2);
  EXPECT_EQ(pool_.actions().adopt, 1u);
  // Case 2 subsubcase 3: the winning honest block references the pool block.
  EXPECT_EQ(tree_.uncle_refs(h2).size(), 1u);
  EXPECT_EQ(tree_.uncle_refs(h2)[0], p);
}

TEST_F(PolicyFixture, HonestWinsTieOnPoolBranchStillAdopts) {
  const BlockId p = pool_block();
  const BlockId h1 = honest_block(tree_.genesis());
  const BlockId h2 = honest_block(p);  // extends the POOL's published block
  expect_state(0, 0);
  EXPECT_EQ(pool_.fork_base(), h2);
  // Case 5 analogue via gamma: h1 becomes the stale block; h2 references it.
  EXPECT_EQ(tree_.uncle_refs(h2).size(), 1u);
  EXPECT_EQ(tree_.uncle_refs(h2)[0], h1);
}

TEST_F(PolicyFixture, OverridePublishesWholeBranch) {
  // Paper Fig. 5: pool withholds 3 blocks, honest mines A2, then B2 on A2.
  const BlockId a1 = pool_block();
  const BlockId b1 = pool_block();
  const BlockId c1 = pool_block();
  expect_state(3, 0);

  const BlockId a2 = honest_block(tree_.genesis());  // Step 2: (3,1)
  expect_state(3, 1);
  EXPECT_TRUE(tree_.is_published(a1));    // pool published exactly one block
  EXPECT_FALSE(tree_.is_published(b1));
  EXPECT_EQ(pool_.actions().publish_one, 1u);

  honest_block(a2);  // Step 3: Ls == Lh + 1 -> publish all, pool wins
  expect_state(0, 0);
  EXPECT_TRUE(tree_.is_published(b1));
  EXPECT_TRUE(tree_.is_published(c1));
  EXPECT_EQ(pool_.fork_base(), c1);
  EXPECT_EQ(pool_.actions().override_publish, 1u);
}

TEST_F(PolicyFixture, RerootOnPrefixMatchesMarkovTransition) {
  // Reach (4,1), then mine an honest block on the pool's published prefix:
  // the Markov transition is (4,1) -> (3,1).
  const BlockId p1 = pool_block();
  pool_block();
  pool_block();
  pool_block();
  expect_state(4, 0);
  honest_block(tree_.genesis());  // (4,1): publishes p1
  expect_state(4, 1);
  EXPECT_TRUE(tree_.is_published(p1));
  EXPECT_EQ(pool_.published_pool_tip(), p1);

  honest_block(p1);  // honest lands on the published prefix tip
  expect_state(3, 1);
  EXPECT_EQ(pool_.fork_base(), p1);  // re-rooted at the old published tip
  EXPECT_EQ(pool_.actions().reroot, 1u);
}

TEST_F(PolicyFixture, ForkExtendDeepensThePublicRace) {
  pool_block();
  pool_block();
  pool_block();
  pool_block();
  const BlockId h1 = honest_block(tree_.genesis());  // (4,1)
  honest_block(h1);                                  // (4,2)
  expect_state(4, 2);
  EXPECT_EQ(pool_.published_count(), 2);
  // Both public branches have length 2.
  const auto view = pool_.public_view();
  EXPECT_TRUE(view.tie);
  EXPECT_EQ(tree_.height(view.pool_branch_tip),
            tree_.height(view.honest_branch_tip));
}

TEST_F(PolicyFixture, Lead2ResolveFromForkedState) {
  // (4,2) + honest block => lead 2 resolution: pool publishes all and wins.
  pool_block();
  pool_block();
  pool_block();
  pool_block();
  const BlockId h1 = honest_block(tree_.genesis());
  honest_block(h1);  // (4,2)
  const auto view = pool_.public_view();
  honest_block(view.honest_branch_tip);  // Case 12 flavour
  expect_state(0, 0);
  EXPECT_EQ(pool_.actions().override_publish, 1u);
}

TEST_F(PolicyFixture, PublicBranchesAlwaysEqualLength) {
  // Drive a pseudo-random schedule and check the invariant after every step.
  support::Xoshiro256 rng(2019);
  for (int step = 0; step < 5000; ++step) {
    if (rng.bernoulli(0.35)) {
      pool_block();
    } else {
      const auto view = pool_.public_view();
      const BlockId parent = honest_.choose_parent(view, rng);
      honest_block(parent);
    }
    const auto view = pool_.public_view();
    if (view.tie) {
      ASSERT_EQ(tree_.height(view.pool_branch_tip),
                tree_.height(view.honest_branch_tip));
    }
  }
}

TEST_F(PolicyFixture, TreeStaysStructurallyValidUnderRandomSchedule) {
  support::Xoshiro256 rng(7);
  for (int step = 0; step < 2000; ++step) {
    if (rng.bernoulli(0.4)) {
      pool_block();
    } else {
      honest_block(honest_.choose_parent(pool_.public_view(), rng));
    }
  }
  const BlockId tip = pool_.finalize(now_);
  const auto report = chain::validate_chain(tree_, rewards_, tip);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST_F(PolicyFixture, FinalizePublishesAndPicksLongestBranch) {
  pool_block();
  pool_block();
  const BlockId tip = pool_.finalize(now_);
  EXPECT_EQ(tip, pool_.private_tip());
  EXPECT_TRUE(tree_.is_published(tip));
}

TEST_F(PolicyFixture, FinalizeTieGoesToHonestBranch) {
  pool_block();
  const BlockId h = honest_block(tree_.genesis());  // (1,1) tie
  const BlockId tip = pool_.finalize(now_);
  EXPECT_EQ(tip, h);  // honest branch was public first
}

TEST_F(PolicyFixture, PoolUnclesAreAlwaysReferencedAtDistanceOne) {
  // Remark 5: run a random schedule and check every referenced pool uncle
  // sits at distance exactly 1.
  support::Xoshiro256 rng(99);
  for (int step = 0; step < 20000; ++step) {
    if (rng.bernoulli(0.3)) {
      pool_block();
    } else {
      honest_block(honest_.choose_parent(pool_.public_view(), rng));
    }
  }
  const BlockId tip = pool_.finalize(now_);
  const auto res = chain::settle_rewards(tree_, tip, rewards_);
  const auto& pool_hist =
      res.uncle_distance[static_cast<std::size_t>(MinerClass::selfish)];
  for (std::size_t d = 2; d < pool_hist.size(); ++d) {
    EXPECT_EQ(pool_hist.at(d), 0u) << "pool uncle at distance " << d;
  }
}

TEST_F(PolicyFixture, RejectsHonestBlockOffThePublicTips) {
  const BlockId p1 = pool_block();
  pool_block();
  expect_state(2, 0);
  // An honest block claiming the pool's *unpublished* block as parent is a
  // protocol violation the policy must reject loudly.
  const BlockId bogus = tree_.append(p1, MinerClass::honest, 0, now_);
  tree_.publish(bogus, now_);
  EXPECT_THROW(pool_.on_honest_block(bogus, now_), std::invalid_argument);
}

TEST_F(PolicyFixture, UnpublishedHonestBlockIsRejected) {
  const BlockId b = tree_.append(tree_.genesis(), MinerClass::honest, 0, now_);
  EXPECT_THROW(pool_.on_honest_block(b, now_), std::invalid_argument);
}

TEST(SelfishPolicy, NeverReferencesUnclesUnderBitcoinRewards) {
  // Horizon 0 turns Algorithm 1 into the original Eyal–Sirer strategy: the
  // same publish/withhold machine, no uncle references at all.
  chain::BlockTree tree;
  const auto rc = rewards::RewardConfig::bitcoin();
  SelfishPolicy pool(tree, rc);
  HonestPolicy honest(0.5, rc);
  support::Xoshiro256 rng(5);
  double now = 1.0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.35)) {
      pool.on_pool_block(now);
    } else {
      const BlockId b =
          honest.mine_block(tree, honest.choose_parent(pool.public_view(), rng),
                            now, 0);
      pool.on_honest_block(b, now);
    }
    now += 1.0;
  }
  pool.finalize(now);
  for (BlockId id = 0; id < tree.size(); ++id) {
    ASSERT_TRUE(tree.uncle_refs(id).empty());
  }
  EXPECT_GT(pool.actions().override_publish, 0u);
}

}  // namespace
}  // namespace ethsm::miner
