#include "markov/transition_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "support/math_util.h"

namespace ethsm::markov {
namespace {

TEST(MiningParams, Validation) {
  EXPECT_THROW((MiningParams{0.5, 0.5}.validate()), std::invalid_argument);
  EXPECT_THROW((MiningParams{-0.1, 0.5}.validate()), std::invalid_argument);
  EXPECT_THROW((MiningParams{0.3, 1.5}.validate()), std::invalid_argument);
  EXPECT_NO_THROW((MiningParams{0.3, 0.5}.validate()));
  EXPECT_DOUBLE_EQ((MiningParams{0.3, 0.5}.beta()), 0.7);
}

/// One stored transition, read back from the model's CSR arrays.
struct Entry {
  int from = -1;
  int to = -1;
  double rate = 0.0;
  TransitionKind kind{};
};

/// CSR row `s`: the transitions leaving state s, in storage order.
std::vector<Entry> row_of(const TransitionModel& model, int s) {
  std::vector<Entry> out;
  const auto& row = model.row_offsets();
  for (std::uint32_t e = row[static_cast<std::size_t>(s)];
       e < row[static_cast<std::size_t>(s) + 1]; ++e) {
    out.push_back({s, model.columns()[e], model.rates()[e], model.kinds()[e]});
  }
  return out;
}

class ModelFixture : public ::testing::Test {
 protected:
  StateSpace space{30};
  MiningParams params{0.3, 0.4};
  TransitionModel model{space, params};

  std::map<std::pair<int, TransitionKind>, Entry> by_kind(int from) {
    std::map<std::pair<int, TransitionKind>, Entry> out;
    for (const Entry& t : row_of(model, from)) out[{t.from, t.kind}] = t;
    return out;
  }
};

TEST_F(ModelFixture, CsrArraysAreConsistent) {
  const auto& row = model.row_offsets();
  ASSERT_EQ(row.size(), static_cast<std::size_t>(space.size()) + 1);
  EXPECT_EQ(row.front(), 0u);
  EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  EXPECT_EQ(row.back(), model.columns().size());
  EXPECT_EQ(model.rates().size(), model.columns().size());
  EXPECT_EQ(model.kinds().size(), model.columns().size());
}

TEST_F(ModelFixture, OutgoingRatesSumToOneEverywhere) {
  for (int s = 0; s < space.size(); ++s) {
    double total = 0.0;
    for (const Entry& t : row_of(model, s)) total += t.rate;
    EXPECT_NEAR(total, 1.0, 1e-12) << "state " << s;
  }
}

TEST_F(ModelFixture, EveryTargetInsideStateSpace) {
  for (const std::int32_t to : model.columns()) {
    EXPECT_GE(to, 0);
    EXPECT_LT(to, space.size());
    EXPECT_TRUE(space.state_at(to).valid());
  }
}

TEST_F(ModelFixture, StateZeroZeroTransitions) {
  const auto out = by_kind(space.idx_00());
  const auto& self = out.at({0, TransitionKind::honest_at_consensus});
  EXPECT_EQ(self.to, space.idx_00());
  EXPECT_DOUBLE_EQ(self.rate, params.beta());
  const auto& lead = out.at({0, TransitionKind::pool_first_lead});
  EXPECT_EQ(lead.to, space.idx_10());
  EXPECT_DOUBLE_EQ(lead.rate, params.alpha);
}

TEST_F(ModelFixture, StateOneZeroTransitions) {
  const auto out = by_kind(space.idx_10());
  EXPECT_EQ(out.at({1, TransitionKind::pool_extend_lead}).to,
            space.index_of(State{2, 0}));
  EXPECT_EQ(out.at({1, TransitionKind::honest_match}).to, space.idx_11());
}

TEST_F(ModelFixture, StateOneOneBothResolve) {
  const auto out = by_kind(space.idx_11());
  EXPECT_EQ(out.at({2, TransitionKind::pool_win_tie}).to, space.idx_00());
  EXPECT_EQ(out.at({2, TransitionKind::honest_resolve_tie}).to,
            space.idx_00());
  EXPECT_DOUBLE_EQ(out.at({2, TransitionKind::pool_win_tie}).rate,
                   params.alpha);
  EXPECT_DOUBLE_EQ(out.at({2, TransitionKind::honest_resolve_tie}).rate,
                   params.beta());
}

TEST_F(ModelFixture, LeadTwoNoForkResolves) {
  const int s = space.index_of(State{2, 0});
  const auto out = by_kind(s);
  const auto& resolve = out.at({s, TransitionKind::honest_resolve_lead2_nofork});
  EXPECT_EQ(resolve.to, space.idx_00());
  EXPECT_DOUBLE_EQ(resolve.rate, params.beta());
}

TEST_F(ModelFixture, DeepLeadNoForkOpensFirstFork) {
  const int s = space.index_of(State{5, 0});
  const auto out = by_kind(s);
  const auto& fork = out.at({s, TransitionKind::honest_first_fork});
  EXPECT_EQ(fork.to, space.index_of(State{5, 1}));
  EXPECT_DOUBLE_EQ(fork.rate, params.beta());
}

TEST_F(ModelFixture, ForkedStateSplitsOnGamma) {
  const int s = space.index_of(State{6, 2});
  const auto out = by_kind(s);
  const auto& reroot = out.at({s, TransitionKind::honest_prefix_reroot});
  EXPECT_EQ(reroot.to, space.index_of(State{4, 1}));  // (i-j, 1)
  EXPECT_DOUBLE_EQ(reroot.rate, params.beta() * params.gamma);
  const auto& extend = out.at({s, TransitionKind::honest_fork_extend});
  EXPECT_EQ(extend.to, space.index_of(State{6, 3}));
  EXPECT_DOUBLE_EQ(extend.rate, params.beta() * (1.0 - params.gamma));
}

TEST_F(ModelFixture, ForkedLeadTwoResolvesBothWays) {
  const int s = space.index_of(State{4, 2});
  const auto out = by_kind(s);
  EXPECT_EQ(out.at({s, TransitionKind::honest_resolve_lead2_prefix}).to,
            space.idx_00());
  EXPECT_EQ(out.at({s, TransitionKind::honest_resolve_lead2_fork}).to,
            space.idx_00());
  EXPECT_DOUBLE_EQ(
      out.at({s, TransitionKind::honest_resolve_lead2_prefix}).rate,
      params.beta() * params.gamma);
}

TEST_F(ModelFixture, TruncationBoundarySelfLoops) {
  const int s = space.index_of(State{30, 0});
  bool found_self_loop = false;
  for (const Entry& t : row_of(model, s)) {
    if (t.kind == TransitionKind::pool_extend_lead) {
      EXPECT_EQ(t.to, s);
      found_self_loop = true;
    }
  }
  EXPECT_TRUE(found_self_loop);
}

TEST(TransitionModel, GammaZeroOmitsRerootTransitions) {
  StateSpace space(10);
  TransitionModel model(space, MiningParams{0.3, 0.0});
  for (const TransitionKind kind : model.kinds()) {
    EXPECT_NE(kind, TransitionKind::honest_prefix_reroot);
    EXPECT_NE(kind, TransitionKind::honest_resolve_lead2_prefix);
  }
}

TEST(TransitionModel, GammaOneOmitsForkExtension) {
  StateSpace space(10);
  TransitionModel model(space, MiningParams{0.3, 1.0});
  for (const TransitionKind kind : model.kinds()) {
    EXPECT_NE(kind, TransitionKind::honest_fork_extend);
    EXPECT_NE(kind, TransitionKind::honest_resolve_lead2_fork);
  }
}

}  // namespace
}  // namespace ethsm::markov
