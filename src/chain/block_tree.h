// Append-only block tree (paper Sec. II, Fig. 2): every client observes a tree
// of blocks; a main chain is selected from it. This class stores the tree and
// answers the ancestry/height queries that uncle eligibility (Sec. III-B) and
// the mining policies (Sec. III-C) need.
//
// Child links are stored arena-style (first/last child + next sibling arrays
// indexed by BlockId) rather than one heap vector per node, so a tree can be
// reset() and refilled by the multi-run drivers without reallocating — the
// sweep hot path runs thousands of 100k-block simulations per experiment.

#ifndef ETHSM_CHAIN_BLOCK_TREE_H
#define ETHSM_CHAIN_BLOCK_TREE_H

#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "chain/block.h"
#include "support/check.h"

namespace ethsm::chain {

class BlockTree {
 public:
  /// Forward range over a block's children, in append order.
  class ChildRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = BlockId;
      using difference_type = std::ptrdiff_t;
      using pointer = const BlockId*;
      using reference = BlockId;

      iterator() = default;
      iterator(BlockId current, const std::vector<BlockId>* next_sibling)
          : current_(current), next_sibling_(next_sibling) {}

      BlockId operator*() const noexcept { return current_; }
      iterator& operator++() noexcept {
        current_ = (*next_sibling_)[current_];
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator copy = *this;
        ++(*this);
        return copy;
      }
      bool operator==(const iterator& o) const noexcept {
        return current_ == o.current_;
      }
      bool operator!=(const iterator& o) const noexcept {
        return current_ != o.current_;
      }

     private:
      BlockId current_ = kNoBlock;
      const std::vector<BlockId>* next_sibling_ = nullptr;
    };

    ChildRange(BlockId first, const std::vector<BlockId>* next_sibling)
        : first_(first), next_sibling_(next_sibling) {}

    [[nodiscard]] iterator begin() const noexcept {
      return iterator(first_, next_sibling_);
    }
    [[nodiscard]] iterator end() const noexcept {
      return iterator(kNoBlock, next_sibling_);
    }
    [[nodiscard]] bool empty() const noexcept { return first_ == kNoBlock; }

    /// Number of children; O(children) walk, meant for tests and diagnostics.
    [[nodiscard]] std::size_t size() const noexcept {
      std::size_t n = 0;
      for (BlockId c = first_; c != kNoBlock; c = (*next_sibling_)[c]) ++n;
      return n;
    }
    /// i-th child in append order, or kNoBlock when i is out of range;
    /// O(i) walk, meant for tests and diagnostics.
    [[nodiscard]] BlockId operator[](std::size_t i) const noexcept {
      BlockId c = first_;
      while (i-- > 0 && c != kNoBlock) c = (*next_sibling_)[c];
      return c;
    }

   private:
    BlockId first_;
    const std::vector<BlockId>* next_sibling_;
  };

  /// Creates a tree holding only the genesis block (published at time 0,
  /// height 0, honest-owned by convention; genesis earns no rewards).
  explicit BlockTree(std::size_t reserve_hint = 0);

  /// Clears the tree back to the genesis-only state while keeping all node
  /// storage capacity. Equivalent to assigning a fresh BlockTree but without
  /// the allocations; the multi-run drivers reuse one tree per thread.
  void reset(std::size_t reserve_hint = 0);

  [[nodiscard]] BlockId genesis() const noexcept { return 0; }
  [[nodiscard]] std::size_t size() const noexcept { return blocks_.size(); }

  /// Appends a block. `uncle_refs` must already satisfy eligibility (use
  /// collect_uncle_references); this is checked lazily by ChainValidator, not
  /// here, to keep the mining hot loop cheap. The refs are copied into the
  /// tree's shared uncle arena -- no per-block heap allocation.
  BlockId append(BlockId parent, MinerClass miner, std::uint32_t miner_id,
                 double mined_at, std::span<const BlockId> uncle_refs = {});
  BlockId append(BlockId parent, MinerClass miner, std::uint32_t miner_id,
                 double mined_at, std::initializer_list<BlockId> uncle_refs) {
    return append(parent, miner, miner_id, mined_at,
                  std::span<const BlockId>(uncle_refs.begin(),
                                           uncle_refs.size()));
  }

  /// Marks a block visible to the network. Publishing is monotone: a block can
  /// be published once; re-publication is a logic error.
  void publish(BlockId id, double now);

  // The per-block reads are inline: the uncle window and the mining policies
  // call them several times per simulated block.
  [[nodiscard]] const Block& block(BlockId id) const {
    check_id(id);
    return blocks_[id];
  }
  /// Uncle blocks referenced by `id`, in the order passed to append(). The
  /// view stays valid until the next append() or reset().
  [[nodiscard]] std::span<const BlockId> uncle_refs(BlockId id) const {
    const Block& b = block(id);
    return {uncle_arena_.data() + b.uncle_begin, b.uncle_count};
  }
  [[nodiscard]] std::uint32_t height(BlockId id) const {
    return block(id).height;
  }
  [[nodiscard]] BlockId parent(BlockId id) const { return block(id).parent; }
  [[nodiscard]] bool is_published(BlockId id) const {
    return block(id).is_published();
  }
  [[nodiscard]] ChildRange children(BlockId id) const {
    check_id(id);
    return ChildRange(first_child_[id], &next_sibling_);
  }

  /// True iff more than one block (published or not) sits at height `h`.
  /// When every height of an uncle window holds a single block, that block is
  /// the window ancestor and the window has no uncle candidates.
  [[nodiscard]] bool has_fork_at(std::uint32_t h) const noexcept {
    return h < height_count_.size() && height_count_[h] > 1;
  }

  /// The unique ancestor of `from` at height `h` (requires h <= height(from)).
  [[nodiscard]] BlockId ancestor_at_height(BlockId from, std::uint32_t h) const;

  /// Total number of blocks mined by each class (for conservation checks).
  [[nodiscard]] std::uint64_t mined_count(MinerClass c) const noexcept {
    return mined_count_[static_cast<std::size_t>(c)];
  }

 private:
  void check_id(BlockId id) const {
    ETHSM_EXPECTS(id < blocks_.size(), "unknown block id");
  }

  std::vector<Block> blocks_;
  // Arena child links: children of `p` are the chain first_child_[p],
  // next_sibling_[first_child_[p]], ... in append order.
  std::vector<BlockId> first_child_;
  std::vector<BlockId> last_child_;
  std::vector<BlockId> next_sibling_;
  // Shared uncle-reference arena: block b's refs are
  // uncle_arena_[b.uncle_begin .. b.uncle_begin + b.uncle_count). Blocks are
  // append-only and refs are fixed at creation, so slices never move.
  std::vector<BlockId> uncle_arena_;
  // Blocks per height, saturating at 2: only "more than one" is ever asked.
  std::vector<std::uint8_t> height_count_;
  std::uint64_t mined_count_[2] = {0, 0};
};

/// Per-thread reusable tree arena for the simulation drivers: a thread_local
/// tree reset() to the genesis-only state with the given capacity hint.
/// Multi-run sweeps call this once per run instead of constructing a fresh
/// tree, so node storage is allocated once per thread and reused. The
/// reference stays valid for the calling thread's lifetime; each call
/// invalidates the previous contents.
[[nodiscard]] BlockTree& thread_local_tree(std::size_t reserve_hint);

}  // namespace ethsm::chain

#endif  // ETHSM_CHAIN_BLOCK_TREE_H
