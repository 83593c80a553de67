#include "chain/uncle_index.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ethsm::chain {
namespace {

bool contains(const std::vector<BlockId>& v, BlockId id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

/// Every eligible uncle for a block on `parent`, with its distance.
std::vector<UncleCandidate> candidates(const BlockTree& tree, BlockId parent,
                                       int horizon) {
  UncleScratch scratch;
  collect_uncle_references(tree, parent, horizon, 0, scratch);
  return std::move(scratch.candidates);
}

/// The ids collect_uncle_references picks, truncated to `max_refs`.
std::vector<BlockId> references(const BlockTree& tree, BlockId parent,
                                int horizon, int max_refs) {
  UncleScratch scratch;
  collect_uncle_references(tree, parent, horizon, max_refs, scratch);
  return std::move(scratch.refs);
}

/// True iff `uncle` would be an eligible reference for a new block on
/// `parent` at the given horizon (the conditions in uncle_index.h).
bool is_eligible_uncle(const BlockTree& tree, BlockId uncle, BlockId parent,
                       int horizon) {
  const auto cands = candidates(tree, parent, horizon);
  return std::any_of(cands.begin(), cands.end(),
                     [uncle](const UncleCandidate& c) { return c.id == uncle; });
}

/// Reconstruction of the paper's Fig. 3 block tree.
///   heights:   1    2        3      4     5   6
///   main:      A -- B2 ----- C1 --- D1 -- E1 -- F1 -- ...
///   stale:        B1, B3 (children of A), C2 (child of B1), D2 (child of C1)
class Fig3Tree : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [&](BlockId parent, double when) {
      const BlockId id = t.append(parent, MinerClass::honest, 0, when);
      t.publish(id, when);
      return id;
    };
    A = add(t.genesis(), 1.0);
    B1 = add(A, 2.0);
    B2 = add(A, 2.1);
    B3 = add(A, 2.2);
    C2 = add(B1, 2.9);
    // C1 is the nephew referencing B1 and B3 at distance 1.
    C1 = t.append(B2, MinerClass::honest, 0, 3.0, {B1, B3});
    t.publish(C1, 3.0);
    D1 = add(C1, 4.0);
    D2 = add(C1, 4.1);
    E1 = add(D1, 5.0);
    // F1 references D2 at distance 2.
    F1 = t.append(E1, MinerClass::honest, 0, 6.0, {D2});
    t.publish(F1, 6.0);
  }
  BlockTree t;
  BlockId A{}, B1{}, B2{}, B3{}, C1{}, C2{}, D1{}, D2{}, E1{}, F1{};
};

TEST_F(Fig3Tree, CandidatesForC1AreTheDistanceOneUncles) {
  // Before C1 existed: a block on B2 should see B1 and B3 (children of A,
  // not ancestors), but not C2 (child of stale B1).
  BlockTree fresh;  // rebuild without C1's references to query "before"
  const auto cands = candidates(t, B2, 6);
  // C1 already references B1/B3 on this chain... querying at parent B2 for a
  // *new* sibling of C1: B1, B3 are unreferenced from B2's chain (C1 is not
  // an ancestor of the prospective block).
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].id, B1);
  EXPECT_EQ(cands[0].distance, 1);
  EXPECT_EQ(cands[1].id, B3);
  (void)fresh;
}

TEST_F(Fig3Tree, StaleChildOfStaleIsNotEligible) {
  // C2's parent B1 is not on the main chain: never an uncle candidate.
  EXPECT_FALSE(is_eligible_uncle(t, C2, E1, 6));
  EXPECT_FALSE(is_eligible_uncle(t, C2, D1, 6));
}

TEST_F(Fig3Tree, ReferencedUnclesAreExcludedDownstream) {
  // From E1 (whose chain contains C1 referencing B1, B3): only D2 was still
  // open, and F1 has taken it at distance 2; from F1 nothing is left.
  EXPECT_FALSE(is_eligible_uncle(t, B1, E1, 6));
  EXPECT_FALSE(is_eligible_uncle(t, B3, E1, 6));
  EXPECT_TRUE(is_eligible_uncle(t, D2, E1, 6));
  const auto refs_from_f1 = references(t, F1, 6, 0);
  EXPECT_TRUE(refs_from_f1.empty());
}

TEST_F(Fig3Tree, DistanceIsNephewHeightMinusUncleHeight) {
  const auto cands = candidates(t, E1, 6);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].id, D2);
  EXPECT_EQ(cands[0].distance, 2);  // F1 at height 6, D2 at height 4
}

TEST_F(Fig3Tree, PerBranchSemantics) {
  // On a fresh branch from B2 that does NOT go through C1, B1 and B3 are
  // unreferenced again: references are chain-relative, not global.
  const BlockId alt = t.append(B2, MinerClass::selfish, 0, 7.0);
  t.publish(alt, 7.0);
  const auto cands = candidates(t, alt, 6);
  std::vector<BlockId> ids;
  for (const auto& c : cands) ids.push_back(c.id);
  EXPECT_TRUE(contains(ids, B1));
  EXPECT_TRUE(contains(ids, B3));
  EXPECT_TRUE(contains(ids, C1));  // C1 itself forked away by `alt`'s branch
}

TEST(UncleIndex, HorizonCutsOffDistantUncles) {
  BlockTree t;
  // genesis - u (stale) and a long main chain next to it.
  const BlockId u = t.append(t.genesis(), MinerClass::honest, 0, 1.0);
  t.publish(u, 1.0);
  BlockId tip = t.genesis();
  for (int i = 0; i < 6; ++i) {
    tip = t.append(tip, MinerClass::honest, 0, 2.0 + i);
    t.publish(tip, 2.0 + i);
  }
  // A block on `tip` would sit at height 7 => distance to u (height 1) is 6.
  EXPECT_TRUE(is_eligible_uncle(t, u, tip, 6));
  // One more block and u falls out of the window.
  tip = t.append(tip, MinerClass::honest, 0, 9.0);
  t.publish(tip, 9.0);
  EXPECT_FALSE(is_eligible_uncle(t, u, tip, 6));
}

TEST(UncleIndex, HorizonZeroMeansNoCandidates) {
  BlockTree t;
  const BlockId u = t.append(t.genesis(), MinerClass::honest, 0, 1.0);
  t.publish(u, 1.0);
  const BlockId m = t.append(t.genesis(), MinerClass::honest, 0, 1.1);
  t.publish(m, 1.1);
  EXPECT_TRUE(candidates(t, m, 0).empty());
}

TEST(UncleIndex, UnpublishedBlocksAreInvisible) {
  BlockTree t;
  const BlockId secret = t.append(t.genesis(), MinerClass::selfish, 0, 1.0);
  const BlockId m = t.append(t.genesis(), MinerClass::honest, 0, 1.1);
  t.publish(m, 1.1);
  EXPECT_FALSE(is_eligible_uncle(t, secret, m, 6));
  t.publish(secret, 2.0);
  EXPECT_TRUE(is_eligible_uncle(t, secret, m, 6));
}

TEST(UncleIndex, MaxRefsTruncatesOldestFirst) {
  BlockTree t;
  // Three stale siblings at increasing heights.
  const BlockId s1 = t.append(t.genesis(), MinerClass::honest, 0, 1.0);
  t.publish(s1, 1.0);
  BlockId main1 = t.append(t.genesis(), MinerClass::honest, 0, 1.1);
  t.publish(main1, 1.1);
  const BlockId s2 = t.append(main1, MinerClass::honest, 0, 2.0);
  t.publish(s2, 2.0);
  BlockId main2 = t.append(main1, MinerClass::honest, 0, 2.1);
  t.publish(main2, 2.1);

  const auto unlimited = references(t, main2, 6, 0);
  ASSERT_EQ(unlimited.size(), 2u);
  EXPECT_EQ(unlimited[0], s1);  // oldest first
  EXPECT_EQ(unlimited[1], s2);

  const auto capped = references(t, main2, 6, 1);
  ASSERT_EQ(capped.size(), 1u);
  EXPECT_EQ(capped[0], s1);
}

TEST(UncleIndex, AncestorsAreNeverCandidates) {
  BlockTree t;
  BlockId tip = t.genesis();
  for (int i = 0; i < 4; ++i) {
    tip = t.append(tip, MinerClass::honest, 0, 1.0 + i);
    t.publish(tip, 1.0 + i);
  }
  EXPECT_TRUE(candidates(t, tip, 6).empty());
}

}  // namespace
}  // namespace ethsm::chain
