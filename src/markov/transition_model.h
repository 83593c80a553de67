// Transition rates of the selfish-mining Markov process (paper Sec. IV-C,
// Fig. 7), labelled with the Appendix-B case that analyses each transition's
// new ("target") block. The labels are what the reward analysis keys on.

#ifndef ETHSM_MARKOV_TRANSITION_MODEL_H
#define ETHSM_MARKOV_TRANSITION_MODEL_H

#include <array>
#include <cstdint>
#include <vector>

#include "markov/state_space.h"

namespace ethsm::markov {

/// Hash-power split (paper Sec. III-A); beta = 1 - alpha implicitly.
struct MiningParams {
  double alpha = 0.3;  ///< selfish pool's share
  double gamma = 0.5;  ///< honest share mining on the pool's branch at ties

  void validate() const;
  [[nodiscard]] double beta() const noexcept { return 1.0 - alpha; }
};

/// Which structural event a transition represents; numbering follows the
/// Appendix-B cases (see analysis/reward_cases.h for the reward attribution).
enum class TransitionKind : std::uint8_t {
  honest_at_consensus,        ///< Case 1:  (0,0) -b-> (0,0)
  pool_first_lead,            ///< Case 2:  (0,0) -a-> (1,0)
  pool_extend_lead,           ///< Case 3/6: pool extends its private branch
  honest_match,               ///< Case 4:  (1,0) -b-> (1,1)
  pool_win_tie,               ///< Case 5a: (1,1) -a-> (0,0)
  honest_resolve_tie,         ///< Case 5b: (1,1) -b-> (0,0)
  honest_resolve_lead2_nofork,///< Case 9:  (2,0) -b-> (0,0)
  honest_resolve_lead2_prefix,///< Case 8:  (j+2,j) -bg-> (0,0), j >= 1
  honest_resolve_lead2_fork,  ///< Case 12: (j+2,j) -b(1-g)-> (0,0), j >= 1
  honest_first_fork,          ///< Case 10: (i,0) -b-> (i,1), i >= 3
  honest_prefix_reroot,       ///< Case 7:  (i,j) -bg-> (i-j,1), i-j >= 3, j >= 1
  honest_fork_extend,         ///< Case 11: (i,j) -b(1-g)-> (i,j+1), i-j >= 3, j >= 1
};

/// Number of TransitionKind enumerators (the kind-batched layout sizes its
/// offset table with this; a static_assert in transition_model.cpp keeps it
/// in sync with the enum).
inline constexpr int kNumTransitionKinds = 12;

/// All outgoing transitions for every state in the (truncated) space.
/// Invariant: outgoing rates of every state sum to exactly 1 (the total block
/// production rate after the Sec. IV-B time rescaling); at the truncation
/// boundary the pool-extension transition self-loops, which is harmless
/// because the boundary mass is ~alpha^max_lead.
///
/// Storage is CSR (compressed sparse row): row s owns the half-open entry
/// range [row_offsets()[s], row_offsets()[s+1]) of the parallel column /
/// rate / kind arrays. The power-iteration solver streams those arrays
/// row-contiguously (structure-of-arrays: the rate sweep touches no kind
/// bytes); the uncle-distance analysis and the tests walk the same rows.
///
/// Two derived layouts are built alongside the CSR arrays (once per model,
/// one counting-sort pass each):
///   * kind_batched(): the CSR entries permuted so all entries of one
///     TransitionKind are contiguous. The Appendix-B reward flow of a
///     transition depends on the source state only through the locked-in
///     uncle distance -- and only for two of the twelve kinds -- so the
///     reward kernel (analysis::compute_revenue) evaluates one branch-free
///     weighted-sum loop per kind instead of a per-entry switch.
///   * incoming(): the transposed (CSC) view, column c owning the entries
///     that flow *into* state c. The Gauss-Seidel stationary solver sweeps
///     this layout so each state can be updated in place from its inflows.
class TransitionModel {
 public:
  TransitionModel(const StateSpace& space, const MiningParams& params);

  /// CSR entries permuted into per-kind contiguous batches. Entry order
  /// within a batch follows the original CSR order, so the layout is
  /// deterministic. `distance` is the locked-in uncle reference distance of
  /// the transition's target block for the two state-dependent kinds
  /// (honest_first_fork: the pool's lead i; honest_prefix_reroot: the
  /// effective lead i-j) and 0 for the ten state-independent kinds.
  struct KindBatched {
    /// Batch k (TransitionKind underlying value) spans
    /// [offsets[k], offsets[k+1]) of the arrays below.
    std::array<std::uint32_t, kNumTransitionKinds + 1> offsets{};
    std::vector<std::int32_t> source;    ///< source-state index per entry
    std::vector<double> rate;            ///< transition rate per entry
    std::vector<std::int32_t> distance;  ///< uncle distance, 0 when constant
  };

  /// Transposed (CSC) view: column c spans
  /// [col_offsets[c], col_offsets[c+1]) of the source/rate arrays; self-loop
  /// entries (truncation boundary, (0,0)) are *excluded* and folded into
  /// inv_diag. Gauss-Seidel consumes this directly:
  /// pi[c] = (sum of inflows) * inv_diag[c].
  struct Incoming {
    std::vector<std::uint32_t> col_offsets;  ///< size() + 1 offsets
    std::vector<std::int32_t> source;        ///< source-state index per entry
    std::vector<double> rate;                ///< transition rate per entry
    /// 1 / (1 - self-loop rate) per state, precomputed so the Gauss-Seidel
    /// inner loop multiplies instead of divides; 0.0 for a degenerate
    /// diagonal (self-loop rate within 1e-12 of 1), which the solver routes
    /// to power iteration.
    std::vector<double> inv_diag;
  };

  /// CSR row offsets: size() + 1 entries; row s spans
  /// [row_offsets()[s], row_offsets()[s+1]) of the arrays below.
  [[nodiscard]] const std::vector<std::uint32_t>& row_offsets() const noexcept {
    return row_offsets_;
  }
  /// CSR column (target-state) indices, aligned with rates()/kinds().
  [[nodiscard]] const std::vector<std::int32_t>& columns() const noexcept {
    return columns_;
  }
  /// CSR transition rates, aligned with columns().
  [[nodiscard]] const std::vector<double>& rates() const noexcept {
    return rates_;
  }
  /// CSR transition kinds, aligned with columns().
  [[nodiscard]] const std::vector<TransitionKind>& kinds() const noexcept {
    return kinds_;
  }

  /// The kind-batched permutation (reward kernel input).
  [[nodiscard]] const KindBatched& kind_batched() const noexcept {
    return batched_;
  }
  /// The transposed CSC view (Gauss-Seidel solver input).
  [[nodiscard]] const Incoming& incoming() const noexcept { return incoming_; }

  [[nodiscard]] const StateSpace& space() const noexcept { return space_; }
  [[nodiscard]] const MiningParams& params() const noexcept { return params_; }

 private:
  void build();
  void build_kind_batched();
  void build_incoming();

  const StateSpace& space_;
  MiningParams params_;
  // CSR storage (primary).
  std::vector<std::uint32_t> row_offsets_;  ///< size() + 1 offsets
  std::vector<std::int32_t> columns_;
  std::vector<double> rates_;
  std::vector<TransitionKind> kinds_;
  // Derived layouts (built once in the constructor).
  KindBatched batched_;
  Incoming incoming_;
};

}  // namespace ethsm::markov

#endif  // ETHSM_MARKOV_TRANSITION_MODEL_H
