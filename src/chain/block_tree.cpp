#include "chain/block_tree.h"

#include <utility>

#include "support/check.h"

namespace ethsm::chain {

BlockTree::BlockTree(std::size_t reserve_hint) { reset(reserve_hint); }

void BlockTree::reset(std::size_t reserve_hint) {
  blocks_.clear();
  first_child_.clear();
  last_child_.clear();
  next_sibling_.clear();
  uncle_arena_.clear();
  height_count_.clear();
  if (reserve_hint > 0) {
    blocks_.reserve(reserve_hint);
    height_count_.reserve(reserve_hint);
    first_child_.reserve(reserve_hint);
    last_child_.reserve(reserve_hint);
    next_sibling_.reserve(reserve_hint);
  }
  mined_count_[0] = 0;
  mined_count_[1] = 0;

  Block genesis;
  genesis.parent = kNoBlock;
  genesis.height = 0;
  genesis.miner = MinerClass::honest;
  genesis.mined_at = 0.0;
  genesis.published_at = 0.0;
  blocks_.push_back(std::move(genesis));
  first_child_.push_back(kNoBlock);
  last_child_.push_back(kNoBlock);
  next_sibling_.push_back(kNoBlock);
  height_count_.push_back(1);
  // Genesis is not attributed to either class for mined-count purposes.
}

BlockId BlockTree::append(BlockId parent, MinerClass miner,
                          std::uint32_t miner_id, double mined_at,
                          std::span<const BlockId> uncle_refs) {
  check_id(parent);
  for (BlockId u : uncle_refs) check_id(u);
  const std::uint32_t height = blocks_[parent].height + 1;
  // Record who references each uncle (Block::referrer_gap); `above` wraps
  // when u is not below the new block.
  for (BlockId u : uncle_refs) {
    std::uint8_t& gap = blocks_[u].referrer_gap;
    const std::uint32_t above = height - blocks_[u].height;
    gap = gap == 0 && above >= 1 && above < kReferrersUnknown
              ? static_cast<std::uint8_t>(above)
              : kReferrersUnknown;
  }

  Block b;
  b.parent = parent;
  b.height = height;
  b.miner = miner;
  b.miner_id = miner_id;
  b.mined_at = mined_at;
  b.uncle_begin = static_cast<std::uint32_t>(uncle_arena_.size());
  b.uncle_count = static_cast<std::uint32_t>(uncle_refs.size());
  if (!uncle_refs.empty() && uncle_refs.data() >= uncle_arena_.data() &&
      uncle_refs.data() < uncle_arena_.data() + uncle_arena_.size()) {
    // The span aliases this tree's own arena (e.g. uncle_refs(other) fed
    // straight back into append): growing the vector would invalidate it
    // mid-copy, so copy by index after reserving.
    const std::size_t offset =
        static_cast<std::size_t>(uncle_refs.data() - uncle_arena_.data());
    const std::size_t count = uncle_refs.size();
    uncle_arena_.reserve(uncle_arena_.size() + count);
    for (std::size_t i = 0; i < count; ++i) {
      uncle_arena_.push_back(uncle_arena_[offset + i]);
    }
  } else {
    uncle_arena_.insert(uncle_arena_.end(), uncle_refs.begin(),
                        uncle_refs.end());
  }

  const auto id = static_cast<BlockId>(blocks_.size());
  blocks_.push_back(std::move(b));
  first_child_.push_back(kNoBlock);
  last_child_.push_back(kNoBlock);
  next_sibling_.push_back(kNoBlock);
  if (first_child_[parent] == kNoBlock) {
    first_child_[parent] = id;
  } else {
    next_sibling_[last_child_[parent]] = id;
  }
  last_child_[parent] = id;
  // A block sits at most one above the tallest one so far: a new height is
  // always the next slot.
  if (height == height_count_.size()) {
    height_count_.push_back(1);
  } else if (height_count_[height] < 2) {
    ++height_count_[height];
  }
  ++mined_count_[static_cast<std::size_t>(miner)];
  return id;
}

void BlockTree::publish(BlockId id, double now) {
  check_id(id);
  ETHSM_EXPECTS(!blocks_[id].is_published(), "block already published");
  ETHSM_EXPECTS(now >= blocks_[id].mined_at,
                "cannot publish before the block was mined");
  blocks_[id].published_at = now;
}

BlockId BlockTree::ancestor_at_height(BlockId from, std::uint32_t h) const {
  check_id(from);
  ETHSM_EXPECTS(h <= blocks_[from].height, "ancestor height above block");
  BlockId cur = from;
  while (blocks_[cur].height > h) cur = blocks_[cur].parent;
  return cur;
}

BlockTree& thread_local_tree(std::size_t reserve_hint) {
  thread_local BlockTree tree;
  tree.reset(reserve_hint);
  return tree;
}

}  // namespace ethsm::chain
