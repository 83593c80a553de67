#include "chain/block_tree.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "chain/chain_validator.h"

namespace ethsm::chain {
namespace {

TEST(BlockTree, StartsWithPublishedGenesis) {
  BlockTree t;
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.genesis(), 0u);
  EXPECT_EQ(t.height(t.genesis()), 0u);
  EXPECT_TRUE(t.is_published(t.genesis()));
  EXPECT_EQ(t.parent(t.genesis()), kNoBlock);
}

TEST(BlockTree, AppendSetsHeightAndLinks) {
  BlockTree t;
  const BlockId a = t.append(t.genesis(), MinerClass::honest, 3, 1.0);
  const BlockId b = t.append(a, MinerClass::selfish, 7, 2.0);
  EXPECT_EQ(t.height(a), 1u);
  EXPECT_EQ(t.height(b), 2u);
  EXPECT_EQ(t.parent(b), a);
  EXPECT_EQ(t.block(b).miner, MinerClass::selfish);
  EXPECT_EQ(t.block(b).miner_id, 7u);
  EXPECT_DOUBLE_EQ(t.block(b).mined_at, 2.0);
  ASSERT_EQ(t.children(a).size(), 1u);
  EXPECT_EQ(t.children(a)[0], b);
}

TEST(BlockTree, AppendedBlocksStartUnpublished) {
  BlockTree t;
  const BlockId a = t.append(t.genesis(), MinerClass::selfish, 0, 1.0);
  EXPECT_FALSE(t.is_published(a));
  t.publish(a, 5.0);
  EXPECT_TRUE(t.is_published(a));
  EXPECT_DOUBLE_EQ(t.block(a).published_at, 5.0);
}

TEST(BlockTree, PublishTwiceIsAnError) {
  BlockTree t;
  const BlockId a = t.append(t.genesis(), MinerClass::honest, 0, 1.0);
  t.publish(a, 1.0);
  EXPECT_THROW(t.publish(a, 2.0), std::invalid_argument);
}

TEST(BlockTree, PublishBeforeMinedIsAnError) {
  BlockTree t;
  const BlockId a = t.append(t.genesis(), MinerClass::honest, 0, 3.0);
  EXPECT_THROW(t.publish(a, 2.0), std::invalid_argument);
}

TEST(BlockTree, RejectsUnknownIds) {
  BlockTree t;
  EXPECT_THROW((void)t.height(42), std::invalid_argument);
  EXPECT_THROW((void)t.append(42, MinerClass::honest, 0, 1.0),
               std::invalid_argument);
}

TEST(BlockTree, MinedCountsByClass) {
  BlockTree t;
  const BlockId a = t.append(t.genesis(), MinerClass::honest, 0, 1.0);
  t.append(a, MinerClass::selfish, 0, 2.0);
  t.append(a, MinerClass::selfish, 0, 2.5);
  EXPECT_EQ(t.mined_count(MinerClass::honest), 1u);
  EXPECT_EQ(t.mined_count(MinerClass::selfish), 2u);
}

class ForkedTree : public ::testing::Test {
 protected:
  // genesis - a - b - c
  //             \ x - y      (fork at a)
  void SetUp() override {
    a = t.append(t.genesis(), MinerClass::honest, 0, 1.0);
    b = t.append(a, MinerClass::honest, 0, 2.0);
    c = t.append(b, MinerClass::honest, 0, 3.0);
    x = t.append(a, MinerClass::selfish, 0, 2.1);
    y = t.append(x, MinerClass::selfish, 0, 3.1);
  }
  BlockTree t;
  BlockId a{}, b{}, c{}, x{}, y{};
};

TEST_F(ForkedTree, IsAncestorOf) {
  EXPECT_TRUE(is_ancestor_of(t, t.genesis(), c));
  EXPECT_TRUE(is_ancestor_of(t, a, c));
  EXPECT_TRUE(is_ancestor_of(t, a, y));
  EXPECT_TRUE(is_ancestor_of(t, b, c));
  EXPECT_FALSE(is_ancestor_of(t, b, y));
  EXPECT_FALSE(is_ancestor_of(t, x, c));
  EXPECT_FALSE(is_ancestor_of(t, c, a));  // direction matters
  EXPECT_TRUE(is_ancestor_of(t, c, c));   // reflexive
}

TEST_F(ForkedTree, AncestorAtHeight) {
  EXPECT_EQ(t.ancestor_at_height(c, 0), t.genesis());
  EXPECT_EQ(t.ancestor_at_height(c, 1), a);
  EXPECT_EQ(t.ancestor_at_height(c, 2), b);
  EXPECT_EQ(t.ancestor_at_height(y, 2), x);
  EXPECT_THROW((void)t.ancestor_at_height(a, 5), std::invalid_argument);
}

TEST_F(ForkedTree, ChainFromGenesis) {
  const auto chain = chain_from_genesis(t, c);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(chain[0], t.genesis());
  EXPECT_EQ(chain[1], a);
  EXPECT_EQ(chain[2], b);
  EXPECT_EQ(chain[3], c);
}

TEST_F(ForkedTree, ChildrenListsForks) {
  ASSERT_EQ(t.children(a).size(), 2u);
  EXPECT_EQ(t.children(a)[0], b);
  EXPECT_EQ(t.children(a)[1], x);
}

TEST(BlockTree, UncleRefsLiveInTheArenaAndSurviveGrowth) {
  BlockTree t;
  const BlockId stale = t.append(t.genesis(), MinerClass::honest, 0, 1.0);
  t.publish(stale, 1.0);
  const BlockId main1 = t.append(t.genesis(), MinerClass::honest, 0, 1.1);
  const BlockId main2 =
      t.append(main1, MinerClass::honest, 0, 2.0, {stale});
  ASSERT_EQ(t.uncle_refs(main2).size(), 1u);
  EXPECT_EQ(t.uncle_refs(main2)[0], stale);
  EXPECT_TRUE(t.uncle_refs(main1).empty());

  // Feeding a block's own arena slice back into append must stay valid even
  // while the arena reallocates underneath the span.
  BlockId tip = main2;
  for (int i = 0; i < 64; ++i) {
    tip = t.append(tip, MinerClass::honest, 0, 3.0 + i, t.uncle_refs(main2));
    ASSERT_EQ(t.uncle_refs(tip).size(), 1u);
    ASSERT_EQ(t.uncle_refs(tip)[0], stale) << i;
  }
}

}  // namespace
}  // namespace ethsm::chain
