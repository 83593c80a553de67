// The 2-dimensional Markov state (Ls, Lh) of paper Sec. IV-B.
//
// Ls = private-branch length, Lh = (common) public-branch length. The state
// space is {(0,0), (1,0), (1,1)} plus all (i,j) with i - j >= 2, j >= 0:
// whenever the pool's lead shrinks to 1 the race resolves immediately, so no
// other lead-<2 states persist.

#ifndef ETHSM_MARKOV_STATE_H
#define ETHSM_MARKOV_STATE_H

#include <compare>

namespace ethsm::markov {

struct State {
  int ls = 0;  ///< private branch length ("i" in the paper)
  int lh = 0;  ///< public branch length ("j" in the paper)

  friend constexpr auto operator<=>(const State&, const State&) = default;

  [[nodiscard]] constexpr int lead() const noexcept { return ls - lh; }

  /// Is this one of the persistent states of the chain?
  [[nodiscard]] constexpr bool valid() const noexcept {
    if (ls == 0 && lh == 0) return true;
    if (ls == 1 && (lh == 0 || lh == 1)) return true;
    return lh >= 0 && ls - lh >= 2;
  }
};

}  // namespace ethsm::markov

#endif  // ETHSM_MARKOV_STATE_H
