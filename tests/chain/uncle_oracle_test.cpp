// Property test: uncle eligibility against a brute-force oracle.
//
// The production path (collect_uncle_references) walks a bounded ancestor
// window for speed. This oracle re-derives eligibility from first principles
// by scanning EVERY block in the tree with the textbook definition, on
// randomized trees; any divergence is a real bug (this is exactly how the
// missed-distance-6 bug would have been caught).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "chain/chain_validator.h"
#include "chain/uncle_index.h"
#include "support/rng.h"

namespace ethsm::chain {
namespace {

/// Textbook eligibility, O(tree size) per candidate.
std::vector<BlockId> oracle_candidates(const BlockTree& tree, BlockId parent,
                                       int horizon) {
  const std::uint32_t new_height = tree.height(parent) + 1;
  std::vector<BlockId> out;
  for (BlockId u = 0; u < tree.size(); ++u) {
    if (u == tree.genesis()) continue;
    // 5. visible
    if (!tree.is_published(u)) continue;
    // 1. not an ancestor of the prospective block
    if (is_ancestor_of(tree, u, parent)) continue;
    // 2. direct child of the prospective block's chain
    const BlockId uparent = tree.parent(u);
    if (!is_ancestor_of(tree, uparent, parent)) continue;
    // 3. distance within [1, horizon]
    if (tree.height(u) >= new_height) continue;
    const int distance = static_cast<int>(new_height - tree.height(u));
    if (distance < 1 || distance > horizon) continue;
    // 4. unreferenced on this chain
    bool referenced = false;
    for (BlockId anc = parent;; anc = tree.parent(anc)) {
      const auto refs = tree.uncle_refs(anc);
      if (std::find(refs.begin(), refs.end(), u) != refs.end()) {
        referenced = true;
        break;
      }
      if (anc == tree.genesis()) break;
    }
    if (referenced) continue;
    out.push_back(u);
  }
  std::sort(out.begin(), out.end(), [&tree](BlockId a, BlockId b) {
    if (tree.height(a) != tree.height(b)) {
      return tree.height(a) < tree.height(b);
    }
    return a < b;
  });
  return out;
}

/// Grows a random tree with realistic structure: mostly chain extension,
/// some forks, some withheld blocks, occasional honest-style references.
BlockTree random_tree(std::uint64_t seed, int blocks, int horizon) {
  support::Xoshiro256 rng(seed);
  BlockTree tree;
  UncleScratch scratch;
  std::vector<BlockId> tips{tree.genesis()};
  double now = 1.0;
  for (int i = 0; i < blocks; ++i) {
    // Pick a parent: usually a recent tip, sometimes any block (deep fork).
    BlockId parent;
    if (rng.bernoulli(0.85)) {
      parent = tips[rng.uniform_below(tips.size())];
    } else {
      parent = static_cast<BlockId>(rng.uniform_below(tree.size()));
    }
    // Half of the blocks reference uncles like honest miners do.
    std::vector<BlockId> refs;
    if (rng.bernoulli(0.5)) {
      collect_uncle_references(tree, parent, horizon,
                               rng.bernoulli(0.3) ? 2 : 0, scratch);
      refs = scratch.refs;
    }
    const BlockId id = tree.append(
        parent,
        rng.bernoulli(0.3) ? MinerClass::selfish : MinerClass::honest, 0, now,
        std::move(refs));
    // Most blocks publish immediately; some stay withheld.
    if (rng.bernoulli(0.9)) tree.publish(id, now);
    now += 1.0;
    tips.push_back(id);
    if (tips.size() > 6) tips.erase(tips.begin());
  }
  return tree;
}

class UncleOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UncleOracleTest, ProductionMatchesBruteForceOracle) {
  UncleScratch scratch;
  for (int horizon : {1, 3, 6}) {
    const BlockTree tree = random_tree(GetParam() * 31 + horizon, 300, horizon);
    // Query eligibility from every published block as prospective parent.
    for (BlockId parent = 0; parent < tree.size(); ++parent) {
      if (!tree.is_published(parent)) continue;
      const auto expected = oracle_candidates(tree, parent, horizon);
      collect_uncle_references(tree, parent, horizon, 0, scratch);
      const auto& got = scratch.candidates;
      ASSERT_EQ(got.size(), expected.size())
          << "parent " << parent << " horizon " << horizon;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i]) << "parent " << parent;
        EXPECT_EQ(got[i].distance,
                  static_cast<int>(tree.height(parent) + 1 -
                                   tree.height(expected[i])));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, UncleOracleTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace ethsm::chain
