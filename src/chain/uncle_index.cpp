#include "chain/uncle_index.h"

#include <algorithm>
#include <array>
#include <cstddef>

#include "support/check.h"

namespace ethsm::chain {

namespace {

/// Fills scratch.candidates with the first `limit` (0 = all) eligible uncles
/// for a block on `parent`, in (height, id) order.
///
/// With the window ancestors anc[0] = parent, anc[1], ..., anc[depth], an
/// uncle at distance k is a child of anc[k] other than anc[k-1]. Heights
/// that hold a single block hold only the ancestor, so only forked heights
/// are scanned, and scanning k = depth down to 1 (children in append order)
/// visits the candidates already in (height, id) order.
void scan_window(const BlockTree& tree, BlockId parent, int horizon,
                 std::size_t limit, UncleScratch& scratch,
                 std::span<const std::uint8_t> visible) {
  ETHSM_EXPECTS(horizon >= 0, "horizon must be non-negative");
  std::vector<UncleCandidate>& out = scratch.candidates;
  out.clear();
  if (horizon == 0) return;

  // The prospective block sits at parent_height + 1; genesis (height 0) is
  // never an uncle, so the window reaches at most parent_height levels down.
  const std::uint32_t parent_height = tree.height(parent);
  const std::uint32_t depth =
      std::min(static_cast<std::uint32_t>(horizon), parent_height);
  std::uint32_t k = depth;
  while (k >= 1 && !tree.has_fork_at(parent_height + 1 - k)) --k;
  if (k == 0) return;  // no fork in the window: no candidates

  // Ethereum's window (depth <= 6) fits on the stack; deeper ones use scratch.
  std::array<BlockId, 8> local{};
  BlockId* anc = local.data();
  if (depth >= local.size()) {
    scratch.ancestors.resize(depth + 1);
    anc = scratch.ancestors.data();
  }
  BlockId cur = parent;
  for (std::uint32_t i = 0; i < depth; ++i) {
    anc[i] = cur;
    cur = tree.parent(cur);
  }
  anc[depth] = cur;
  // A reference by any window ancestor consumes the uncle on this chain. A
  // block with one referrer needs only the ancestor at that referrer's height.
  const auto refs_by = [&](BlockId a, BlockId child) {
    const auto refs = tree.uncle_refs(a);
    return std::find(refs.begin(), refs.end(), child) != refs.end();
  };
  const auto referenced = [&](const Block& b, BlockId child) {
    if (b.referrer_gap == 0) return false;
    if (b.referrer_gap != kReferrersUnknown) {
      // Wraps past `depth` when the referrer sits above the parent.
      const std::uint32_t offset = parent_height - b.height - b.referrer_gap;
      return offset <= depth && refs_by(anc[offset], child);
    }
    return std::any_of(anc, anc + depth + 1,
                       [&](BlockId a) { return refs_by(a, child); });
  };

  for (; k >= 1; --k) {
    if (!tree.has_fork_at(parent_height + 1 - k)) continue;
    for (BlockId child : tree.children(anc[k])) {
      if (child == anc[k - 1]) continue;  // ancestor of the new block
      const Block& b = tree.block(child);
      if (!b.is_published()) continue;  // invisible to other miners
      // Per-node visibility (network simulator): published but not yet
      // propagated to this miner.
      if (!visible.empty() &&
          (child >= visible.size() || visible[child] == 0)) {
        continue;
      }
      if (referenced(b, child)) continue;
      out.push_back(UncleCandidate{child, static_cast<int>(k)});
      if (out.size() == limit) return;
    }
  }
}

}  // namespace

void collect_uncle_references(const BlockTree& tree, BlockId parent,
                              int horizon, int max_refs, UncleScratch& scratch,
                              std::span<const std::uint8_t> visible) {
  ETHSM_EXPECTS(max_refs >= 0, "max_refs must be >= 0 (0 = unlimited)");
  scan_window(tree, parent, horizon, static_cast<std::size_t>(max_refs),
              scratch, visible);
  std::vector<BlockId>& refs = scratch.refs;
  refs.clear();
  for (const auto& c : scratch.candidates) refs.push_back(c.id);
}

}  // namespace ethsm::chain
