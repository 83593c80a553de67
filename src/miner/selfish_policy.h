// The selfish pool's attack as one explicit state machine operating on a real
// BlockTree: Algorithm 1 of the paper ("A selfish Mining Strategy in
// Ethereum", the Ethereum form of Eyal–Sirer), plus the three stubborn-mining
// deviations of Nayak, Kumar, Miller & Shi (EuroS&P 2016 -- the paper's
// reference [5]), which the paper leaves as future work:
//
//   * Lead stubborn (L): when the honest chain catches up to one block
//     behind, do NOT cash in the lead -- publish only enough to tie and keep
//     the last block secret, betting gamma will split the honest miners.
//   * Equal-fork stubborn (F): when winning the block race from a tie, keep
//     the new block secret instead of revealing the victory.
//   * Trail stubborn (T_j): when the honest chain overtakes by up to j
//     blocks, keep mining the private branch instead of giving up.
//
// With the default Strategy (every knob off) the machine is exactly
// Algorithm 1 -- pinned by a differential test against a frozen literal
// transcription of the algorithm (tests/kernel/reference_engines.h). With
// Bitcoin rewards (horizon 0) it references no uncles and is the original
// Eyal–Sirer strategy: the chain dynamics of the two are identical, only the
// reward plumbing differs.
//
// The policy mirrors the paper's (Ls, Lh) bookkeeping:
//   * `base_`       -- the fork base: last block everyone agrees on,
//   * `private_`    -- the pool's branch above the base (Ls = its length; a
//                      prefix of it may already be published),
//   * `published_`  -- how many of `private_` are published (the pool's public
//                      prefix); never more than honest_len_,
//   * `honest_tip_/honest_len_` -- the honest public fork above the base
//                      (Lh = honest_len_).
//
// Every pool block references all eligible uncles visible on the private
// branch (Algorithm 1 line 1); this is what earns the pool nephew rewards and
// locks honest uncles to the distances derived in Appendix B.

#ifndef ETHSM_MINER_SELFISH_POLICY_H
#define ETHSM_MINER_SELFISH_POLICY_H

#include <cstdint>
#include <span>
#include <vector>

#include "chain/block_tree.h"
#include "chain/uncle_index.h"
#include "miner/policy_types.h"
#include "rewards/reward_schedule.h"

namespace ethsm::miner {

/// The stubborn deviations from Algorithm 1; all off = Algorithm 1.
struct Strategy {
  bool lead = false;  ///< L: refuse the 1-block override win, tie instead
  bool fork = false;  ///< F: keep a tie-winning block secret
  /// T_j: maximum deficit (Lh - Ls) tolerated before adopting the honest
  /// chain. 0 = give up immediately (Algorithm 1).
  int trail = 0;
};

class SelfishPolicy {
 public:
  /// The tree must outlive the policy; the uncle horizon and per-block cap
  /// come from `rewards` (horizon 0 = no uncle referencing at all). The
  /// optional `visibility` mask (network simulator: indexed by BlockId,
  /// nonzero = the pool has actually received the block) restricts uncle
  /// candidates; empty = the aggregate model, where publication implies
  /// visibility. The span must outlive the policy. The policy starts at
  /// consensus = the tree's genesis (state (0,0)).
  SelfishPolicy(chain::BlockTree& tree, const rewards::RewardConfig& rewards,
                Strategy strategy = {},
                std::span<const std::uint8_t> visibility = {});

  /// The pool mined a block: extend the private branch (Algorithm 1 lines
  /// 1-7); may reveal it per the strategy. Returns the new block.
  chain::BlockId on_pool_block(double now);

  /// An honest block `b` was appended & published by the honest side; react
  /// per Algorithm 1 lines 8-20. `b`'s parent must be a current public tip.
  void on_honest_block(chain::BlockId b, double now);

  /// End of run: publish whatever is still private and return the tip of the
  /// winning chain (longest; ties go to the honest branch, which was public
  /// first). The policy is left in a terminal state.
  chain::BlockId finalize(double now);

  /// Network-layer resync hook (net/net_sim.h): restart the machine with
  /// `new_base` as the consensus tip, dropping all race bookkeeping. Publishes
  /// nothing -- a caller that wants the private branch released must publish
  /// it first (e.g. via finalize); the dropped branch is forgotten, not
  /// published. Used when a natural latency fork overtakes the tracked public
  /// view, a situation the two-branch state cannot express.
  void rebase(chain::BlockId new_base) { reset_to(new_base); }

  /// What honest miners can see right now.
  [[nodiscard]] PublicView public_view() const;

  [[nodiscard]] int private_length() const noexcept {  // Ls
    return static_cast<int>(private_.size());
  }
  [[nodiscard]] int public_length() const noexcept {  // Lh
    return honest_len_;
  }
  [[nodiscard]] int published_count() const noexcept { return published_; }
  [[nodiscard]] chain::BlockId fork_base() const noexcept { return base_; }
  [[nodiscard]] chain::BlockId private_tip() const noexcept {
    return private_.empty() ? base_ : private_.back();
  }
  /// Tip of the pool's published prefix; kNoBlock when nothing is published.
  [[nodiscard]] chain::BlockId published_pool_tip() const noexcept;
  [[nodiscard]] const ActionCounts& actions() const noexcept {
    return actions_;
  }

 private:
  void publish_up_to(int count, double now);
  void reset_to(chain::BlockId new_base);
  /// Eligible uncle refs for a new pool block; the view aliases the policy's
  /// reusable scratch and is only valid until the next call.
  [[nodiscard]] std::span<const chain::BlockId> make_references(
      chain::BlockId parent);
  /// Two equal-length public branches race: the pool's published prefix and
  /// the honest fork.
  [[nodiscard]] bool in_tie() const noexcept {
    return published_ >= 1 && published_ == honest_len_;
  }

  chain::BlockTree& tree_;
  Strategy strategy_;
  std::span<const std::uint8_t> visibility_;
  int horizon_;
  int max_refs_;
  chain::UncleScratch uncle_scratch_;
  chain::BlockId base_;
  std::vector<chain::BlockId> private_;
  int published_ = 0;
  chain::BlockId honest_tip_ = chain::kNoBlock;
  int honest_len_ = 0;
  ActionCounts actions_;
};

}  // namespace ethsm::miner

#endif  // ETHSM_MINER_SELFISH_POLICY_H
