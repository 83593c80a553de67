// Reference implementations of the two Markov inner engines and of the
// pool's attack state machine, frozen at earlier versions so the optimised or
// merged production code has something honest to be diffed against:
//   * reference_compute_revenue -- the per-entry switch + Kahan-summation
//     revenue loop that analysis::compute_revenue replaced with the
//     kind-batched kernel. Kept byte-for-byte (modulo namespace) from the
//     seed revision of src/analysis/revenue.cpp.
//   * reference_solve_stationary_power -- a deliberately naive edge-list
//     power iteration, structurally independent of both production solvers
//     (which share the library's CSR/CSC layouts), so a layout-construction
//     bug cannot cancel out of the comparison.
//   * reference_solve_stationary_gauss_seidel -- the stationary solve with
//     the plain CSC Gauss-Seidel sweep that re-reads pi[c-1] from memory and
//     always multiplies by inv_diag, frozen from the version the
//     register-carried sweep replaced; results must match it bit for bit.
//   * ReferenceAlgorithm1 -- the paper's Algorithm 1 as a literal per-case
//     transcription, frozen from the Algorithm-1-only policy that
//     miner::SelfishPolicy replaced when the stubborn deviations were folded
//     into one machine.
//   * reference_find_uncle_candidates -- the uncle-window search that walks
//     every window ancestor twice, gathers their refs, scans every child list
//     and sorts, frozen from the version that the fork-aware single walk
//     in chain::collect_uncle_references replaced.
//   * reference_run_net_simulation -- the network engine that builds every
//     gossip message and decides its fate (lost at a down node, ignored as a
//     duplicate) only on arrival, frozen from the version that
//     net::run_net_simulation replaced with send-time settlement.
// The differential suite (ctest -L kernel) pins the production engines
// against these across a randomized (alpha, gamma, max_lead, reward-spec)
// grid (differential_kernel_test.cpp), the attack policy against
// Algorithm 1 on random schedules (differential_policy_test.cpp), the
// uncle window on random forked trees (differential_uncle_window_test.cpp),
// the network engine on short runs across topologies, latencies, relay
// modes and fault mixes (differential_net_send_fate_test.cpp), and the
// Gauss-Seidel solve bit for bit across truncations, alphas, gammas, warm
// starts and forced fallbacks (differential_gauss_seidel_test.cpp).

#ifndef ETHSM_TESTS_KERNEL_REFERENCE_ENGINES_H
#define ETHSM_TESTS_KERNEL_REFERENCE_ENGINES_H

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/revenue.h"
#include "chain/block_tree.h"
#include "chain/uncle_index.h"
#include "markov/stationary.h"
#include "markov/transition_model.h"
#include "miner/policy_types.h"
#include "net/net_sim.h"
#include "rewards/reward_schedule.h"

namespace ethsm::testing {

/// The seed revenue integration: walk every CSR entry, evaluate the
/// Appendix-B reward flow per entry, Kahan-accumulate each component.
[[nodiscard]] analysis::RevenueBreakdown reference_compute_revenue(
    const markov::StationaryDistribution& pi,
    const markov::TransitionModel& model, const rewards::RewardConfig& config);

/// Naive power iteration over an edge list of the CSR entries, started from
/// the point mass at (0,0). Returns the normalised stationary vector.
[[nodiscard]] std::vector<double> reference_solve_stationary_power(
    const markov::TransitionModel& model, double tolerance = 1e-14,
    int max_iterations = 200'000);

/// The whole stationary solve as it stood before the register-carried
/// Gauss-Seidel sweep: plain CSC sweep, doubling-schedule convergence
/// bookkeeping, the half-budget power-iteration fallback under `automatic`
/// and the final Kahan renormalisation. Same options contract as
/// markov::solve_stationary for `automatic` and `gauss_seidel`.
[[nodiscard]] markov::StationaryDistribution
reference_solve_stationary_gauss_seidel(
    const markov::TransitionModel& model,
    const markov::StationaryOptions& options = {});

/// The pre-index uncle-window search: candidates for a block on `parent`,
/// sorted by (height, id), with the same published-only, `visible` mask and
/// already-referenced semantics as chain::collect_uncle_references.
[[nodiscard]] std::vector<chain::UncleCandidate>
reference_find_uncle_candidates(const chain::BlockTree& tree,
                                chain::BlockId parent, int horizon,
                                std::span<const std::uint8_t> visible = {});

/// One network run with every gossip message queued (or dispatched inline)
/// and judged on arrival; same inputs, outputs and seed contract as
/// net::run_net_simulation.
[[nodiscard]] net::NetSimResult reference_run_net_simulation(
    const net::NetSimConfig& config);

/// Algorithm 1 ("A selfish Mining Strategy in Ethereum") read case by case
/// off the paper's (Ls, Lh) analysis, with the same uncle window (horizon and
/// per-block cap from the rewards; horizon 0 = no references), visibility
/// mask, rebase and finalize contracts as miner::SelfishPolicy. Internally:
/// `base_` is the fork base, `private_` the pool's branch above it,
/// `published_` the length of its public prefix (== honest_len_ whenever both
/// branches exist) and `honest_tip_/honest_len_` the honest public fork.
class ReferenceAlgorithm1 {
 public:
  ReferenceAlgorithm1(chain::BlockTree& tree,
                      const rewards::RewardConfig& rewards,
                      std::span<const std::uint8_t> visibility = {});

  chain::BlockId on_pool_block(double now);
  void on_honest_block(chain::BlockId b, double now);
  chain::BlockId finalize(double now);
  void rebase(chain::BlockId new_base) { reset_to(new_base); }

  [[nodiscard]] miner::PublicView public_view() const;
  [[nodiscard]] int private_length() const noexcept {  // Ls
    return static_cast<int>(private_.size());
  }
  [[nodiscard]] int public_length() const noexcept;  // Lh
  [[nodiscard]] chain::BlockId private_tip() const noexcept {
    return private_.empty() ? base_ : private_.back();
  }

 private:
  [[nodiscard]] chain::BlockId published_pool_tip() const noexcept;
  void publish_up_to(int count, double now);
  void reset_to(chain::BlockId new_base);
  [[nodiscard]] std::span<const chain::BlockId> make_references(
      chain::BlockId parent);

  chain::BlockTree& tree_;
  std::span<const std::uint8_t> visibility_;
  int horizon_;
  int max_refs_;
  chain::UncleScratch uncle_scratch_;
  chain::BlockId base_;
  std::vector<chain::BlockId> private_;
  int published_ = 0;
  chain::BlockId honest_tip_ = chain::kNoBlock;
  int honest_len_ = 0;
};

}  // namespace ethsm::testing

#endif  // ETHSM_TESTS_KERNEL_REFERENCE_ENGINES_H
