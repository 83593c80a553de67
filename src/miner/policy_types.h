// Shared types for mining policies (paper Sec. III-C).

#ifndef ETHSM_MINER_POLICY_TYPES_H
#define ETHSM_MINER_POLICY_TYPES_H

#include <cstdint>

#include "chain/block.h"

namespace ethsm::miner {

/// What honest miners can currently see (paper Sec. IV-A network model).
///
/// Under Algorithm 1 the public state is always one of:
///  * a unique best tip everybody mines on (`tie == false`), or
///  * two equal-length public branches -- the pool's published prefix and the
///    honest fork -- in which case a fraction gamma of honest hash power mines
///    on the pool's branch (`tie == true`).
struct PublicView {
  chain::BlockId consensus_tip = chain::kNoBlock;  ///< valid when !tie
  chain::BlockId pool_branch_tip = chain::kNoBlock;    ///< valid when tie
  chain::BlockId honest_branch_tip = chain::kNoBlock;  ///< valid when tie
  bool tie = false;
};

/// Telemetry: how often each branch of the attack state machine fired
/// (miner/selfish_policy.h). Used by tests to pin the machine to the paper's
/// case analysis and by examples for narration.
struct ActionCounts {
  std::uint64_t adopt = 0;            ///< line 10-12: public branch won
  std::uint64_t match = 0;            ///< line 13-14: publish to tie
  std::uint64_t override_publish = 0; ///< line 15-17: publish all, pool wins
  std::uint64_t publish_one = 0;      ///< line 18-19: publish to keep level
  std::uint64_t reroot = 0;           ///< line 20: new fork on the prefix
  std::uint64_t tie_win = 0;          ///< line 3-5: pool wins from a tie
  std::uint64_t held_lead = 0;        ///< L: refused an override win
  std::uint64_t held_fork = 0;        ///< F: kept a tie-winning block secret
  std::uint64_t trailed = 0;          ///< T: kept mining while behind
  std::uint64_t caught_up = 0;        ///< T: published after catching up
};

}  // namespace ethsm::miner

#endif  // ETHSM_MINER_POLICY_TYPES_H
