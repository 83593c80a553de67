#include "miner/selfish_policy.h"

#include "chain/uncle_index.h"
#include "support/check.h"

namespace ethsm::miner {

using chain::BlockId;
using chain::kNoBlock;

namespace {

/// Miner id stamped on pool blocks; rewards are attributed by MinerClass
/// (the population simulator splits them across members afterwards).
constexpr std::uint32_t kPoolMinerId = 0;

}  // namespace

SelfishPolicy::SelfishPolicy(chain::BlockTree& tree,
                             const rewards::RewardConfig& rewards,
                             Strategy strategy,
                             std::span<const std::uint8_t> visibility)
    : tree_(tree),
      strategy_(strategy),
      visibility_(visibility),
      horizon_(rewards.reference_horizon()),
      max_refs_(rewards.max_uncles_per_block),
      base_(tree.genesis()) {
  ETHSM_EXPECTS(strategy_.trail >= 0, "trail stubbornness must be >= 0");
  ETHSM_EXPECTS(horizon_ >= 0, "horizon must be >= 0");
  ETHSM_EXPECTS(max_refs_ >= 0, "cap must be >= 0");
}

BlockId SelfishPolicy::published_pool_tip() const noexcept {
  return published_ == 0 ? kNoBlock
                         : private_[static_cast<std::size_t>(published_ - 1)];
}

std::span<const BlockId> SelfishPolicy::make_references(BlockId parent) {
  if (horizon_ == 0) return {};  // Bitcoin: no uncle mechanism at all
  chain::collect_uncle_references(tree_, parent, horizon_, max_refs_,
                                  uncle_scratch_, visibility_);
  return uncle_scratch_.refs;
}

void SelfishPolicy::publish_up_to(int count, double now) {
  ETHSM_ASSERT(count <= static_cast<int>(private_.size()));
  for (int i = published_; i < count; ++i) {
    tree_.publish(private_[static_cast<std::size_t>(i)], now);
  }
  if (count > published_) published_ = count;
}

void SelfishPolicy::reset_to(BlockId new_base) {
  base_ = new_base;
  private_.clear();
  published_ = 0;
  honest_tip_ = kNoBlock;
  honest_len_ = 0;
}

BlockId SelfishPolicy::on_pool_block(double now) {
  const bool was_tie = in_tie() &&
                       private_length() == honest_len_;  // fully matched race
  const bool was_behind = private_length() < honest_len_;

  // Algorithm 1 lines 1-2: reference uncles from the private branch, extend it.
  const BlockId parent = private_tip();
  const BlockId id = tree_.append(parent, chain::MinerClass::selfish,
                                  kPoolMinerId, now, make_references(parent));
  private_.push_back(id);
  const int ls = private_length();

  if (was_tie) {
    // Lines 3-5: won the block race from a tie ((Ls, Lh) = (2, 1) under
    // Algorithm 1) -- the advantage is too small to keep racing, so publish
    // everything; the longer branch beats the honest fork. The
    // equal-fork-stubborn miner stays dark and keeps racing instead.
    if (strategy_.fork) {
      ++actions_.held_fork;
    } else {
      publish_up_to(ls, now);
      ++actions_.tie_win;
      reset_to(private_.back());
    }
  } else if (was_behind && ls == honest_len_) {
    // Trail-stubborn catch-up: reveal the whole branch, forcing a tie race
    // between two equal-length public branches.
    publish_up_to(ls, now);
    ++actions_.caught_up;
  }
  // Otherwise (line 7): keep mining in the dark; this also covers the
  // trailing case where the pool is still behind.
  return id;
}

void SelfishPolicy::on_honest_block(BlockId b, double now) {
  ETHSM_EXPECTS(tree_.is_published(b), "honest blocks must arrive published");
  const BlockId parent = tree_.parent(b);

  // Line 9: which public branch did it extend?
  if (honest_len_ == 0 && published_ == 0) {
    // No fork in public view: the honest block must extend the consensus
    // base, which is by construction a prefix of the private branch.
    ETHSM_EXPECTS(parent == base_, "honest block off the public tip");
    honest_tip_ = b;
    honest_len_ = 1;
  } else if (parent == honest_tip_) {
    honest_tip_ = b;
    ++honest_len_;
  } else if (in_tie() && parent == published_pool_tip()) {
    if (published_ == private_length()) {
      // Our fully-published branch just became strictly longest public
      // history; we hold no secrets, so consensus moves to b (lines 10-12).
      ++actions_.adopt;
      reset_to(b);
      return;
    }
    // Line 20: the honest block forked off the published prefix tip; the
    // prefix is common history now and the race restarts one level up.
    base_ = private_[static_cast<std::size_t>(published_ - 1)];
    private_.erase(private_.begin(), private_.begin() + published_);
    published_ = 0;
    honest_tip_ = b;
    honest_len_ = 1;
    ++actions_.reroot;
  } else {
    ETHSM_EXPECTS(false, "honest block extends neither public branch");
    return;  // unreachable
  }

  const int ls = private_length();
  const int lh = honest_len_;

  if (ls < lh) {
    if (lh - ls > strategy_.trail) {
      // Lines 10-12: the public branch won; adopt it.
      ++actions_.adopt;
      reset_to(honest_tip_);
    } else {
      // Trail-stubborn: keep mining the private branch from behind.
      ++actions_.trailed;
    }
  } else if (ls == lh) {
    // Lines 13-14: honest drew level with the private branch: reveal
    // everything and race.
    publish_up_to(ls, now);
    ++actions_.match;
  } else if (ls == lh + 1) {
    if (strategy_.lead) {
      // Refuse the 1-block override win; tie the public race and keep the
      // last block in reserve.
      publish_up_to(lh, now);
      ++actions_.held_lead;
    } else {
      // Lines 15-17: advantage down to one block -- publish the private
      // branch; it is strictly longer, so every miner adopts it.
      publish_up_to(ls, now);
      ++actions_.override_publish;
      reset_to(private_.back());
    }
  } else {
    // Lines 18-19: comfortable lead: publish just enough to keep the public
    // race level.
    publish_up_to(lh, now);
    ++actions_.publish_one;
  }
}

BlockId SelfishPolicy::finalize(double now) {
  publish_up_to(private_length(), now);
  // Longest published branch wins; on equal length the honest branch was
  // visible first, so honest miners keep it (uniform first-seen rule).
  return private_length() > honest_len_ ? private_tip()
         : honest_len_ > 0             ? honest_tip_
                                       : base_;
}

PublicView SelfishPolicy::public_view() const {
  PublicView view;
  if (in_tie()) {
    view.tie = true;
    view.pool_branch_tip = published_pool_tip();
    view.honest_branch_tip = honest_tip_;
  } else if (honest_len_ > published_) {
    view.tie = false;
    view.consensus_tip = honest_tip_;  // the unique longest public branch
  } else {
    ETHSM_ASSERT(honest_len_ == 0 && published_ == 0);
    view.tie = false;
    view.consensus_tip = base_;
  }
  return view;
}

}  // namespace ethsm::miner
