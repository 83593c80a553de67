#include "reference_engines.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "support/check.h"
#include "support/stats.h"

namespace ethsm::testing {

analysis::RevenueBreakdown reference_compute_revenue(
    const markov::StationaryDistribution& pi,
    const markov::TransitionModel& model, const rewards::RewardConfig& config) {
  using analysis::RewardFlow;
  support::KahanSum pool_static, pool_uncle, pool_nephew;
  support::KahanSum honest_static, honest_uncle, honest_nephew;
  support::KahanSum regular_rate, uncle_rate;

  // CSR row walk: the stationary mass and source state are hoisted per row,
  // and zero-mass rows (deep truncation tail) skip their reward-case
  // evaluations entirely.
  const int n = model.space().size();
  const auto& row = model.row_offsets();
  const auto& rate = model.rates();
  const auto& kind = model.kinds();
  for (int s = 0; s < n; ++s) {
    const double mass = pi[s];
    if (mass == 0.0) continue;
    const markov::State& st = model.space().state_at(s);
    for (std::uint32_t k = row[static_cast<std::size_t>(s)];
         k < row[static_cast<std::size_t>(s) + 1]; ++k) {
      const double weight = mass * rate[k];
      if (weight == 0.0) continue;
      const RewardFlow flow =
          analysis::expected_rewards(st, kind[k], model.params(), config);
      pool_static.add(weight * flow.pool_static);
      pool_uncle.add(weight * flow.pool_uncle);
      pool_nephew.add(weight * flow.pool_nephew);
      honest_static.add(weight * flow.honest_static);
      honest_uncle.add(weight * flow.honest_uncle);
      honest_nephew.add(weight * flow.honest_nephew);
      regular_rate.add(weight * flow.regular_probability);
      uncle_rate.add(weight * flow.referenced_uncle_probability);
    }
  }

  analysis::RevenueBreakdown out;
  out.pool_static = pool_static.value();
  out.pool_uncle = pool_uncle.value();
  out.pool_nephew = pool_nephew.value();
  out.honest_static = honest_static.value();
  out.honest_uncle = honest_uncle.value();
  out.honest_nephew = honest_nephew.value();
  out.regular_rate = regular_rate.value();
  out.referenced_uncle_rate = uncle_rate.value();
  return out;
}

std::vector<double> reference_solve_stationary_power(
    const markov::TransitionModel& model, double tolerance,
    int max_iterations) {
  const auto n = static_cast<std::size_t>(model.space().size());
  std::vector<double> pi(n, 0.0), next(n, 0.0);
  pi[0] = 1.0;
  // The seed solver's array-of-structs edge list, rebuilt from the CSR rows
  // in the same entry order.
  struct Edge {
    std::size_t from, to;
    double rate;
  };
  std::vector<Edge> edges;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::uint32_t e = model.row_offsets()[s];
         e < model.row_offsets()[s + 1]; ++e) {
      edges.push_back({s, static_cast<std::size_t>(model.columns()[e]),
                       model.rates()[e]});
    }
  }
  double diff = 1.0;
  for (int iter = 0; iter < max_iterations && diff > tolerance; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (const Edge& t : edges) next[t.to] += pi[t.from] * t.rate;
    diff = 0.0;
    for (std::size_t s = 0; s < n; ++s) diff += std::fabs(next[s] - pi[s]);
    pi.swap(next);
  }
  double mass = 0.0;
  for (double p : pi) mass += p;
  for (double& p : pi) p /= mass;
  return pi;
}

using chain::BlockId;
using chain::kNoBlock;

std::vector<chain::UncleCandidate> reference_find_uncle_candidates(
    const chain::BlockTree& tree, chain::BlockId parent, int horizon,
    std::span<const std::uint8_t> visible) {
  using chain::BlockId;
  ETHSM_EXPECTS(horizon >= 0, "horizon must be non-negative");
  std::vector<chain::UncleCandidate> out;
  if (horizon == 0) return out;

  // The horizon + 1 nearest ancestors (parent and up): an uncle at distance
  // `horizon` is a child of the deepest one.
  const auto for_each_window_ancestor = [&](auto&& fn) {
    BlockId cur = parent;
    for (int steps = 0; steps <= horizon; ++steps) {
      fn(cur);
      if (cur == tree.genesis()) break;
      cur = tree.parent(cur);
    }
  };
  const std::uint32_t new_height = tree.height(parent) + 1;

  std::vector<BlockId> already_referenced;
  for_each_window_ancestor([&](BlockId anc) {
    const auto refs = tree.uncle_refs(anc);
    already_referenced.insert(already_referenced.end(), refs.begin(),
                              refs.end());
  });

  BlockId on_chain_child = chain::kNoBlock;
  for_each_window_ancestor([&](BlockId anc) {
    for (BlockId child : tree.children(anc)) {
      if (child == on_chain_child || child == parent) continue;
      if (!tree.is_published(child)) continue;
      if (!visible.empty() &&
          (child >= visible.size() || visible[child] == 0)) {
        continue;
      }
      if (std::find(already_referenced.begin(), already_referenced.end(),
                    child) != already_referenced.end()) {
        continue;
      }
      const int distance = static_cast<int>(new_height - tree.height(child));
      if (distance < 1 || distance > horizon) continue;
      out.push_back(chain::UncleCandidate{child, distance});
    }
    on_chain_child = anc;
  });

  std::sort(out.begin(), out.end(), [&tree](const auto& a, const auto& b) {
    if (tree.height(a.id) != tree.height(b.id)) {
      return tree.height(a.id) < tree.height(b.id);
    }
    return a.id < b.id;
  });
  return out;
}

ReferenceAlgorithm1::ReferenceAlgorithm1(
    chain::BlockTree& tree, const rewards::RewardConfig& rewards,
    std::span<const std::uint8_t> visibility)
    : tree_(tree),
      visibility_(visibility),
      horizon_(rewards.reference_horizon()),
      max_refs_(rewards.max_uncles_per_block),
      base_(tree.genesis()) {}

BlockId ReferenceAlgorithm1::published_pool_tip() const noexcept {
  return published_ == 0 ? kNoBlock
                         : private_[static_cast<std::size_t>(published_ - 1)];
}

int ReferenceAlgorithm1::public_length() const noexcept {
  // Both public branches always have equal length; the published prefix
  // count equals the honest fork length, except in (i, 0) states where both
  // are zero.
  return honest_len_ > published_ ? honest_len_ : published_;
}

std::span<const BlockId> ReferenceAlgorithm1::make_references(BlockId parent) {
  if (horizon_ == 0) return {};
  chain::collect_uncle_references(tree_, parent, horizon_, max_refs_,
                                  uncle_scratch_, visibility_);
  return uncle_scratch_.refs;
}

void ReferenceAlgorithm1::publish_up_to(int count, double now) {
  ETHSM_ASSERT(count <= static_cast<int>(private_.size()));
  for (int i = published_; i < count; ++i) {
    tree_.publish(private_[static_cast<std::size_t>(i)], now);
  }
  if (count > published_) published_ = count;
}

void ReferenceAlgorithm1::reset_to(BlockId new_base) {
  base_ = new_base;
  private_.clear();
  published_ = 0;
  honest_tip_ = kNoBlock;
  honest_len_ = 0;
}

BlockId ReferenceAlgorithm1::on_pool_block(double now) {
  // Lines 1-2: reference uncles from the private branch, extend it.
  const BlockId parent = private_tip();
  const BlockId id = tree_.append(parent, chain::MinerClass::selfish, 0, now,
                                  make_references(parent));
  private_.push_back(id);

  // Lines 3-5: at (Ls, Lh) = (2, 1) the advantage is too small to keep
  // racing -- publish everything; the 2-block branch beats the 1-block fork.
  if (private_length() == 2 && public_length() == 1) {
    publish_up_to(2, now);
    reset_to(private_.back());
  }
  // Line 7: otherwise keep mining privately; nothing is published.
  return id;
}

void ReferenceAlgorithm1::on_honest_block(BlockId b, double now) {
  const BlockId parent = tree_.parent(b);
  ETHSM_EXPECTS(tree_.is_published(b), "honest blocks must arrive published");

  // Which public branch did the honest block extend, and is that branch a
  // prefix of the private branch?
  bool on_prefix;
  if (honest_len_ == 0 && published_ == 0) {
    ETHSM_EXPECTS(parent == base_, "honest block off the public tip");
    on_prefix = true;
  } else if (parent == honest_tip_) {
    on_prefix = false;
  } else if (parent == published_pool_tip()) {
    on_prefix = true;
  } else {
    ETHSM_EXPECTS(false, "honest block extends neither public branch");
    return;  // unreachable
  }

  // Line 9: the extended public branch now has this length.
  const int new_public_len = (on_prefix ? published_ : honest_len_) + 1;
  const int ls = private_length();

  if (ls < new_public_len) {
    // Lines 10-12: the public branch won; adopt it.
    ETHSM_ASSERT(published_ == ls);
    reset_to(b);
  } else if (ls == new_public_len) {
    // Lines 13-14: tie race -- publish the last (only) private block. Only
    // reachable from (1, 0).
    ETHSM_ASSERT(ls == 1 && published_ == 0 && on_prefix);
    publish_up_to(1, now);
    honest_tip_ = b;
    honest_len_ = 1;
  } else if (ls == new_public_len + 1) {
    // Lines 15-17: advantage down to one block -- publish the private branch.
    publish_up_to(ls, now);
    reset_to(private_.back());
  } else {
    // Lines 18-20: comfortable lead (Ls >= Lh + 2): release one more block.
    if (on_prefix) {
      if (published_ > 0) {
        // Line 20: re-root at the published prefix tip.
        base_ = private_[static_cast<std::size_t>(published_ - 1)];
        private_.erase(private_.begin(), private_.begin() + published_);
        published_ = 0;
      }
      honest_tip_ = b;
      honest_len_ = 1;
    } else {
      honest_tip_ = b;
      ++honest_len_;
    }
    publish_up_to(honest_len_, now);
  }
}

BlockId ReferenceAlgorithm1::finalize(double now) {
  publish_up_to(private_length(), now);
  return private_length() > honest_len_ ? private_tip()
         : honest_len_ > 0             ? honest_tip_
                                       : base_;
}

miner::PublicView ReferenceAlgorithm1::public_view() const {
  miner::PublicView view;
  if (published_ > 0) {
    ETHSM_ASSERT(honest_len_ == published_);
    view.tie = true;
    view.pool_branch_tip = published_pool_tip();
    view.honest_branch_tip = honest_tip_;
  } else {
    ETHSM_ASSERT(honest_len_ == 0);
    view.consensus_tip = base_;
  }
  return view;
}

}  // namespace ethsm::testing
