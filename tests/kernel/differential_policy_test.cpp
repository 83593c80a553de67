// Differential lockdown of the attack state machine (ctest -L kernel):
// miner::SelfishPolicy with the default Strategy must be Algorithm 1 bit for
// bit. It is driven against the frozen literal transcription
// (ReferenceAlgorithm1, reference_engines.h) on identical random schedules
// over an (alpha, gamma, rewards) grid -- Byzantium, Bitcoin (horizon 0) and
// a per-block cap of 2 -- with a changing uncle-visibility mask and mid-run
// finalize + rebase resyncs, the way the network simulator drives it. The
// two block trees (parent, miner, uncle refs, published flag) and every
// finalize tip must agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chain/block_tree.h"
#include "miner/honest_policy.h"
#include "miner/selfish_policy.h"
#include "reference_engines.h"
#include "rewards/reward_schedule.h"
#include "support/rng.h"

namespace ethsm {
namespace {

using chain::BlockId;
using miner::HonestPolicy;
using rewards::RewardConfig;

constexpr int kSteps = 4000;

RewardConfig capped_byzantium() {
  RewardConfig config = RewardConfig::ethereum_byzantium();
  config.max_uncles_per_block = 2;
  return config;
}

/// Runs both machines on one schedule; returns the first disagreement, or ""
/// when the runs are identical.
std::string run_cell(double alpha, double gamma, const RewardConfig& rewards,
                     std::uint64_t seed) {
  // One mask serves both runs: block ids agree as long as the trees do.
  // Pool blocks are visible to the pool; honest blocks arrive at once or
  // later (or never), as in the network simulator.
  std::vector<std::uint8_t> visible(kSteps + 2, 0);
  visible[0] = 1;
  chain::BlockTree tree_a(kSteps + 2), tree_b(kSteps + 2);
  miner::SelfishPolicy policy(tree_a, rewards, {}, visible);
  testing::ReferenceAlgorithm1 reference(tree_b, rewards, visible);
  HonestPolicy honest_a(gamma, rewards), honest_b(gamma, rewards);
  support::Xoshiro256 rng(seed);

  double now = 0.0;
  for (int step = 0; step < kSteps; ++step) {
    now += 1.0;
    if (rng.bernoulli(0.3)) {  // a late arrival makes an old block visible
      visible[rng.uniform_below(tree_a.size())] = 1;
    }
    if (rng.bernoulli(0.003)) {  // resync: release everything, restart
      const BlockId tip = policy.finalize(now);
      if (tip != reference.finalize(now)) {
        return "finalize tip differs at resync, step " + std::to_string(step);
      }
      const BlockId base = rng.bernoulli(0.5) ? tip : policy.private_tip();
      policy.rebase(base);
      reference.rebase(base);
      continue;
    }
    const bool pool_mines = rng.bernoulli(alpha);
    const bool prefer_pool = rng.bernoulli(gamma);
    if (pool_mines) {
      const BlockId id = policy.on_pool_block(now);
      if (id != reference.on_pool_block(now)) {
        return "pool block id differs at step " + std::to_string(step);
      }
      visible[id] = 1;
    } else {
      const BlockId parent_a = HonestPolicy::parent_for_preference(
          policy.public_view(), prefer_pool);
      const BlockId parent_b = HonestPolicy::parent_for_preference(
          reference.public_view(), prefer_pool);
      if (parent_a != parent_b) {
        return "public view differs at step " + std::to_string(step);
      }
      const BlockId a = honest_a.mine_block(tree_a, parent_a, now, 0);
      const BlockId b = honest_b.mine_block(tree_b, parent_b, now, 0);
      visible[a] = rng.bernoulli(0.6) ? 1 : 0;
      policy.on_honest_block(a, now);
      reference.on_honest_block(b, now);
    }
    if (policy.private_length() != reference.private_length() ||
        policy.public_length() != reference.public_length()) {
      return "(Ls, Lh) differs at step " + std::to_string(step);
    }
  }
  if (policy.finalize(now + 1.0) != reference.finalize(now + 1.0)) {
    return "final tip differs";
  }
  if (tree_a.size() != tree_b.size()) return "tree sizes differ";
  for (BlockId id = 0; id < tree_a.size(); ++id) {
    if (tree_a.block(id).parent != tree_b.block(id).parent ||
        tree_a.block(id).miner != tree_b.block(id).miner ||
        !std::ranges::equal(tree_a.uncle_refs(id), tree_b.uncle_refs(id)) ||
        tree_a.is_published(id) != tree_b.is_published(id)) {
      return "block " + std::to_string(id) + " differs";
    }
  }
  return "";
}

TEST(KernelAttackPolicy, DefaultStrategyIsAlgorithmOne) {
  const std::vector<std::pair<std::string, RewardConfig>> reward_configs = {
      {"byzantium", RewardConfig::ethereum_byzantium()},
      {"bitcoin", RewardConfig::bitcoin()},
      {"byzantium cap 2", capped_byzantium()}};
  std::uint64_t seed = 0x41e1;
  for (const auto& [name, rewards] : reward_configs) {
    for (const double alpha : {0.1, 0.2, 0.3, 0.35, 0.4, 0.45}) {
      for (const double gamma : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        EXPECT_EQ(run_cell(alpha, gamma, rewards, ++seed), "")
            << name << " alpha=" << alpha << " gamma=" << gamma;
      }
    }
  }
}

}  // namespace
}  // namespace ethsm
