#include "markov/state_space.h"

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <stdexcept>

namespace ethsm::markov {

// gtest's printer for State in failure messages (found by ADL).
void PrintTo(const State& s, std::ostream* os) {
  *os << '(' << s.ls << ", " << s.lh << ')';
}

namespace {

TEST(State, LeadAndValidity) {
  EXPECT_EQ((State{5, 2}.lead()), 3);
  EXPECT_TRUE((State{0, 0}.valid()));
  EXPECT_TRUE((State{1, 0}.valid()));
  EXPECT_TRUE((State{1, 1}.valid()));
  EXPECT_TRUE((State{2, 0}.valid()));
  EXPECT_TRUE((State{7, 5}.valid()));
  EXPECT_FALSE((State{2, 1}.valid()));  // lead 1: resolves instantly
  EXPECT_FALSE((State{3, 2}.valid()));
  EXPECT_FALSE((State{1, 2}.valid()));
}

TEST(StateSpace, RejectsTinyTruncation) {
  EXPECT_THROW(StateSpace(1), std::invalid_argument);
}

TEST(StateSpace, SizeFormula) {
  // 3 specials + sum_{i=2}^{L} (i-1) = 3 + L(L-1)/2.
  for (int max_lead : {2, 5, 10, 40}) {
    StateSpace space(max_lead);
    EXPECT_EQ(space.size(), 3 + max_lead * (max_lead - 1) / 2);
  }
}

TEST(StateSpace, WellKnownIndices) {
  StateSpace space(10);
  EXPECT_EQ(space.state_at(space.idx_00()), (State{0, 0}));
  EXPECT_EQ(space.state_at(space.idx_10()), (State{1, 0}));
  EXPECT_EQ(space.state_at(space.idx_11()), (State{1, 1}));
}

TEST(StateSpace, IndexOfIsInverseOfStateAt) {
  StateSpace space(25);
  for (int idx = 0; idx < space.size(); ++idx) {
    EXPECT_EQ(space.index_of(space.state_at(idx)), idx);
  }
}

TEST(StateSpace, AllStatesDistinctAndValid) {
  StateSpace space(20);
  std::set<std::pair<int, int>> seen;
  for (const State& s : space.states()) {
    EXPECT_TRUE(s.valid()) << s.ls << "," << s.lh;
    EXPECT_TRUE(seen.emplace(s.ls, s.lh).second);
  }
}

TEST(StateSpace, OutOfSpaceStatesReturnMinusOne) {
  StateSpace space(10);
  EXPECT_EQ(space.index_of(State{11, 0}), -1);  // beyond truncation
  EXPECT_EQ(space.index_of(State{2, 1}), -1);   // invalid lead-1
  EXPECT_EQ(space.index_of(State{3, 2}), -1);
  EXPECT_EQ(space.index_of(State{5, -1}), -1);
}

TEST(StateSpace, StateAtBoundsChecked) {
  StateSpace space(5);
  EXPECT_THROW((void)space.state_at(-1), std::invalid_argument);
  EXPECT_THROW((void)space.state_at(space.size()), std::invalid_argument);
}

}  // namespace
}  // namespace ethsm::markov
