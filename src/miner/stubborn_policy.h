// Stubborn-mining strategies (Nayak, Kumar, Miller & Shi, EuroS&P 2016 --
// the paper's reference [5]) generalized to Ethereum's uncle economy.
//
// The paper studies Eyal–Sirer-style selfish mining and leaves "new mining
// strategies" as future work; this module provides the canonical family of
// deviations on the same chain substrate so that question can be explored
// empirically (the ext_stubborn preset):
//
//   * Lead stubborn (L): when the honest chain catches up to one block
//     behind, do NOT cash in the lead -- publish only enough to tie and keep
//     the last block secret, betting gamma will split the honest miners.
//   * Equal-fork stubborn (F): when winning the block race from a tie, keep
//     the new block secret instead of revealing the victory.
//   * Trail stubborn (T_j): when the honest chain overtakes by up to j
//     blocks, keep mining the private branch instead of giving up.
//
// With every knob off this machine is EXACTLY Algorithm 1 -- pinned by a
// test that feeds both policies identical schedules and requires identical
// block trees. Uncle referencing works as in SelfishPolicy, so all stubborn
// variants still collect uncle/nephew rewards.

#ifndef ETHSM_MINER_STUBBORN_POLICY_H
#define ETHSM_MINER_STUBBORN_POLICY_H

#include <cstdint>
#include <span>
#include <vector>

#include "chain/block_tree.h"
#include "chain/uncle_index.h"
#include "miner/policy_types.h"
#include "rewards/reward_schedule.h"

namespace ethsm::miner {

struct StubbornConfig {
  bool lead_stubborn = false;
  bool equal_fork_stubborn = false;
  /// Maximum deficit (honest length - private length) the pool tolerates
  /// before adopting the honest chain. 0 = give up immediately (Algorithm 1).
  int trail_stubbornness = 0;

  int reference_horizon = rewards::kMaxUncleDistance;
  int max_uncles_per_block = 0;
  bool reference_uncles = true;
  std::uint32_t pool_miner_id = 0;

  [[nodiscard]] static StubbornConfig from_rewards(
      const rewards::RewardConfig& rc) {
    StubbornConfig cfg;
    cfg.reference_horizon = rc.reference_horizon();
    cfg.max_uncles_per_block = rc.max_uncles_per_block;
    cfg.reference_uncles = cfg.reference_horizon > 0;
    return cfg;
  }
};

/// Telemetry: Algorithm-1 actions plus the stubborn deviations taken.
struct StubbornActionCounts {
  std::uint64_t adopt = 0;
  std::uint64_t match = 0;
  std::uint64_t override_publish = 0;
  std::uint64_t publish_one = 0;
  std::uint64_t reroot = 0;
  std::uint64_t tie_win = 0;            ///< revealed a tie-breaking block
  std::uint64_t held_lead = 0;          ///< L: refused an override win
  std::uint64_t held_fork = 0;          ///< F: kept a tie-winning block secret
  std::uint64_t trailed = 0;            ///< T: kept mining while behind
  std::uint64_t caught_up = 0;          ///< T: published after catching up
};

class StubbornPolicy {
 public:
  StubbornPolicy(chain::BlockTree& tree, StubbornConfig config);

  /// The pool mined a block; may reveal the branch per the stubborn rules.
  chain::BlockId on_pool_block(double now);

  /// An honest block `b` (already appended & published) arrived.
  void on_honest_block(chain::BlockId b, double now);

  /// Publish leftovers and return the winning tip (ties -> honest).
  chain::BlockId finalize(double now);

  [[nodiscard]] PublicView public_view() const;

  [[nodiscard]] int private_length() const noexcept {
    return static_cast<int>(private_.size());
  }
  [[nodiscard]] int honest_length() const noexcept { return honest_len_; }
  [[nodiscard]] int published_count() const noexcept { return published_; }
  [[nodiscard]] chain::BlockId fork_base() const noexcept { return base_; }
  [[nodiscard]] chain::BlockId private_tip() const noexcept;
  [[nodiscard]] chain::BlockId published_pool_tip() const noexcept;
  [[nodiscard]] const StubbornActionCounts& actions() const noexcept {
    return actions_;
  }

 private:
  void publish_up_to(int count, double now);
  void reset_to(chain::BlockId new_base);
  /// Eligible uncle refs for a new pool block; aliases the reusable scratch,
  /// valid only until the next call.
  [[nodiscard]] std::span<const chain::BlockId> make_references(
      chain::BlockId parent);
  [[nodiscard]] bool in_tie() const noexcept {
    return published_ >= 1 && published_ == honest_len_;
  }

  chain::BlockTree& tree_;
  StubbornConfig config_;
  chain::UncleScratch uncle_scratch_;
  chain::BlockId base_;
  std::vector<chain::BlockId> private_;
  int published_ = 0;
  chain::BlockId honest_tip_ = chain::kNoBlock;
  int honest_len_ = 0;
  StubbornActionCounts actions_;
};

}  // namespace ethsm::miner

#endif  // ETHSM_MINER_STUBBORN_POLICY_H
