// Differential lockdown of the uncle window (ctest -L kernel):
// chain::collect_uncle_references (its candidates and its capped refs) must
// match the frozen pre-index search (reference_find_uncle_candidates,
// reference_engines.h) candidate for candidate -- id, distance and order --
// on random trees with forks, late and never-published blocks, arbitrary
// append refs and random visibility masks, over horizons {0, 1, 2, 6, 7, 100}
// and per-block caps {0, 1, 2}. Every block of the grown tree is queried as
// the parent; while the tree grows, so are each new block and the tip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "chain/block_tree.h"
#include "chain/uncle_index.h"
#include "reference_engines.h"
#include "support/rng.h"

namespace ethsm {
namespace {

using chain::BlockId;
using chain::BlockTree;
using chain::MinerClass;

constexpr int kHorizons[] = {0, 1, 2, 6, 7, 100};
constexpr int kCaps[] = {0, 1, 2};

/// Compares production against the reference for one query; returns the
/// first disagreement, or "" when both agree. `scratch` is shared across
/// queries so stale working state would show.
std::string compare_query(const BlockTree& tree, BlockId parent, int horizon,
                          std::span<const std::uint8_t> visible,
                          chain::UncleScratch& scratch) {
  const auto where = [&] {
    return " (parent " + std::to_string(parent) + ", horizon " +
           std::to_string(horizon) + ", mask " +
           (visible.empty() ? "none" : "random") + ", tree size " +
           std::to_string(tree.size()) + ")";
  };
  const auto expected =
      testing::reference_find_uncle_candidates(tree, parent, horizon, visible);
  chain::collect_uncle_references(tree, parent, horizon, 0, scratch, visible);
  const auto& got = scratch.candidates;
  if (got.size() != expected.size()) {
    return "candidate count " + std::to_string(got.size()) + " != " +
           std::to_string(expected.size()) + where();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != expected[i].id ||
        got[i].distance != expected[i].distance) {
      return "candidate " + std::to_string(i) + " is (" +
             std::to_string(got[i].id) + ", " +
             std::to_string(got[i].distance) + "), expected (" +
             std::to_string(expected[i].id) + ", " +
             std::to_string(expected[i].distance) + ")" + where();
    }
  }
  for (const int cap : kCaps) {
    chain::collect_uncle_references(tree, parent, horizon, cap, scratch,
                                    visible);
    const std::size_t want =
        cap == 0 ? expected.size()
                 : std::min(expected.size(), static_cast<std::size_t>(cap));
    bool same = scratch.refs.size() == want;
    for (std::size_t i = 0; same && i < want; ++i) {
      same = scratch.refs[i] == expected[i].id;
    }
    if (!same) return "refs differ at cap " + std::to_string(cap) + where();
  }
  return "";
}

/// Queries every block of `tree` as the parent, with and without a mask.
std::string compare_all_parents(const BlockTree& tree,
                                std::span<const std::uint8_t> mask,
                                chain::UncleScratch& scratch) {
  for (BlockId parent = 0; parent < tree.size(); ++parent) {
    for (const int horizon : kHorizons) {
      for (const auto visible : {std::span<const std::uint8_t>{}, mask}) {
        std::string diff = compare_query(tree, parent, horizon, visible,
                                         scratch);
        if (!diff.empty()) return diff;
      }
    }
  }
  return "";
}

struct TreeShape {
  int blocks;
  double fork_rate;  ///< chance a block forks off a recent non-tip block
  double deep_fork_rate;  ///< chance it forks off any block at all
  double arbitrary_ref_rate;  ///< chance its refs are random existing ids
};

/// Grows a random tree and diffs the two searches on every prefix's newest
/// block and on the grown tree's every block. Publication is immediate,
/// late (a few appends on) or never; refs are the window's own candidates
/// (capped or not, as a miner would take them) or arbitrary existing ids.
std::string run_tree(std::uint64_t seed, const TreeShape& shape) {
  support::Xoshiro256 rng(seed);
  BlockTree tree;
  std::vector<std::pair<int, BlockId>> pending;  // (publish at step, block)
  std::vector<BlockId> refs;
  chain::UncleScratch scratch;
  BlockId tip = tree.genesis();
  std::vector<std::uint8_t> mask;

  for (int step = 0; step < shape.blocks; ++step) {
    const double now = 1.0 + step;
    BlockId parent = tip;
    if (rng.bernoulli(shape.deep_fork_rate)) {
      parent = static_cast<BlockId>(rng.uniform_below(tree.size()));
    } else if (rng.bernoulli(shape.fork_rate)) {
      parent = tree.height(tip) < 3 ? tree.genesis()
                                    : tree.ancestor_at_height(
                                          tip, tree.height(tip) - 1 -
                                                   static_cast<std::uint32_t>(
                                                       rng.uniform_below(3)));
    }

    refs.clear();
    if (rng.bernoulli(shape.arbitrary_ref_rate)) {
      const auto n = rng.uniform_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        refs.push_back(static_cast<BlockId>(rng.uniform_below(tree.size())));
      }
    } else if (rng.bernoulli(0.8)) {
      const int horizon = kHorizons[rng.uniform_below(std::size(kHorizons))];
      const int cap = kCaps[rng.uniform_below(std::size(kCaps))];
      for (const auto& c :
           testing::reference_find_uncle_candidates(tree, parent, horizon)) {
        if (cap > 0 && static_cast<int>(refs.size()) >= cap) break;
        refs.push_back(c.id);
      }
    }
    const BlockId id = tree.append(
        parent, rng.bernoulli(0.3) ? MinerClass::selfish : MinerClass::honest,
        0, now, refs);
    const double roll = rng.uniform01();
    if (roll < 0.7) {
      tree.publish(id, now);
    } else if (roll < 0.9) {
      pending.emplace_back(step + 1 + static_cast<int>(rng.uniform_below(8)),
                           id);
    }  // else: never published
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->first <= step) {
        tree.publish(it->second, now);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    if (rng.bernoulli(0.8) || parent == tip) tip = id;

    mask.resize(tree.size());
    for (auto& m : mask) m = rng.bernoulli(0.7) ? 1 : 0;
    for (const int horizon : kHorizons) {
      for (const BlockId q : {id, tip}) {
        std::string diff = compare_query(tree, q, horizon, {}, scratch);
        if (diff.empty()) diff = compare_query(tree, q, horizon, mask, scratch);
        if (!diff.empty()) return "step " + std::to_string(step) + ": " + diff;
      }
    }
  }
  // A mask shorter than the tree: blocks past its end count as unseen.
  mask.resize(tree.size() * 3 / 4);
  return compare_all_parents(tree, mask, scratch);
}

constexpr std::uint64_t kSeeds = 6;

TEST(KernelUncleWindow, SparseForksMatchReference) {
  // Long fork-free stretches: exercises the no-fork early exit at every
  // window depth, including a lone fork at the window's oldest height.
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    EXPECT_EQ(run_tree(seed, {300, 0.08, 0.01, 0.05}), "") << "seed " << seed;
  }
}

TEST(KernelUncleWindow, DenseForksMatchReference) {
  // Forks at most heights: several candidates per window, across heights
  // and within one child list, so truncation order matters.
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    EXPECT_EQ(run_tree(seed * 7919 + 1, {250, 0.45, 0.05, 0.15}), "")
        << "seed " << seed;
  }
}

TEST(KernelUncleWindow, DeepWindowMatchesReference) {
  // Horizon 100 sees a fork far down a long chain.
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    EXPECT_EQ(run_tree(seed * 104729 + 2, {400, 0.03, 0.02, 0.1}), "")
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace ethsm
