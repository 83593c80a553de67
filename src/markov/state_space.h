// Truncated enumeration of the Markov state space with dense indexing.
//
// The paper truncates at i, j < 200 for its numerical work (footnote 3); the
// stationary mass of states with i = max_lead decays like alpha^i, so even
// max_lead = 60 is far below double-precision noise for alpha <= 0.45. The
// truncation is explicit here so convergence can be tested (stationary_test).

#ifndef ETHSM_MARKOV_STATE_SPACE_H
#define ETHSM_MARKOV_STATE_SPACE_H

#include <vector>

#include "markov/state.h"

namespace ethsm::markov {

class StateSpace {
 public:
  /// Enumerates (0,0), (1,0), (1,1) and all (i,j), 2 <= i <= max_lead,
  /// 0 <= j <= i-2.
  explicit StateSpace(int max_lead);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(states_.size());
  }
  [[nodiscard]] int max_lead() const noexcept { return max_lead_; }

  /// Dense index of a state; -1 if outside the (truncated) space.
  [[nodiscard]] int index_of(const State& s) const noexcept {
    return index_of(s, max_lead_);
  }
  /// The same for the space truncated at `max_lead`, without building it:
  /// the enumeration order is fixed, so the index depends on nothing else.
  [[nodiscard]] static int index_of(const State& s, int max_lead) noexcept;

  [[nodiscard]] const State& state_at(int index) const;

  [[nodiscard]] const std::vector<State>& states() const noexcept {
    return states_;
  }

  /// Well-known indices.
  [[nodiscard]] static constexpr int idx_00() noexcept { return 0; }
  [[nodiscard]] static constexpr int idx_10() noexcept { return 1; }
  [[nodiscard]] static constexpr int idx_11() noexcept { return 2; }

 private:
  int max_lead_;
  std::vector<State> states_;
};

}  // namespace ethsm::markov

#endif  // ETHSM_MARKOV_STATE_SPACE_H
