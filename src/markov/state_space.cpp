#include "markov/state_space.h"

#include "support/check.h"

namespace ethsm::markov {

StateSpace::StateSpace(int max_lead) : max_lead_(max_lead) {
  ETHSM_EXPECTS(max_lead >= 2, "state space needs max_lead >= 2");
  states_.push_back(State{0, 0});
  states_.push_back(State{1, 0});
  states_.push_back(State{1, 1});
  for (int i = 2; i <= max_lead; ++i) {
    for (int j = 0; j <= i - 2; ++j) {
      states_.push_back(State{i, j});
    }
  }
}

int StateSpace::index_of(const State& s, int max_lead) noexcept {
  if (s == State{0, 0}) return idx_00();
  if (s == State{1, 0}) return idx_10();
  if (s == State{1, 1}) return idx_11();
  if (s.ls < 2 || s.ls > max_lead || s.lh < 0 || s.ls - s.lh < 2) return -1;
  // Block of states with first coordinate i starts after 3 specials plus
  // sum_{k=2}^{i-1} (k-1) = (i-1)(i-2)/2 entries.
  const int base = 3 + (s.ls - 1) * (s.ls - 2) / 2;
  return base + s.lh;
}

const State& StateSpace::state_at(int index) const {
  ETHSM_EXPECTS(index >= 0 && index < size(), "state index out of range");
  return states_[static_cast<std::size_t>(index)];
}

}  // namespace ethsm::markov
