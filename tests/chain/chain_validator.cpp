#include "chain/chain_validator.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <utility>

namespace ethsm::chain {

namespace {

void report(ValidationReport& r, BlockId id, const std::string& what) {
  std::ostringstream os;
  os << "block " << id << ": " << what;
  r.violations.push_back(os.str());
}

}  // namespace

bool is_ancestor_of(const BlockTree& tree, BlockId ancestor,
                    BlockId descendant) {
  if (tree.height(ancestor) > tree.height(descendant)) return false;
  return tree.ancestor_at_height(descendant, tree.height(ancestor)) == ancestor;
}

std::vector<BlockId> chain_from_genesis(const BlockTree& tree, BlockId tip) {
  std::vector<BlockId> chain;
  for (BlockId cur = tip; cur != kNoBlock; cur = tree.parent(cur)) {
    chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

ValidationReport validate_chain(const BlockTree& tree,
                                const rewards::RewardConfig& config,
                                BlockId main_tip) {
  ValidationReport r;
  const int horizon = config.reference_horizon();

  for (BlockId id = 0; id < tree.size(); ++id) {
    const Block& b = tree.block(id);

    // V1: parent/height consistency.
    if (id == tree.genesis()) {
      if (b.parent != kNoBlock) report(r, id, "genesis has a parent");
      if (b.height != 0) report(r, id, "genesis height is not 0");
    } else {
      if (b.parent == kNoBlock) {
        report(r, id, "non-genesis block without parent (second genesis)");
        continue;
      }
      if (b.parent >= tree.size()) {
        report(r, id, "dangling parent id");
        continue;
      }
      if (b.height != tree.height(b.parent) + 1) {
        report(r, id, "height != parent height + 1");
      }
      // V2: time ordering.
      if (b.mined_at < tree.block(b.parent).mined_at) {
        report(r, id, "mined before its parent");
      }
      if (b.is_published() && b.published_at < b.mined_at) {
        report(r, id, "published before mined");
      }
    }

    // V3/V5/V6: uncle references.
    const auto refs = tree.uncle_refs(id);
    if (config.max_uncles_per_block > 0 &&
        static_cast<int>(refs.size()) > config.max_uncles_per_block) {
      report(r, id, "too many uncle references");
    }
    std::unordered_set<BlockId> seen;
    for (BlockId u : refs) {
      if (u >= tree.size()) {
        report(r, id, "dangling uncle reference");
        continue;
      }
      if (!seen.insert(u).second) {
        report(r, id, "duplicate uncle reference within one block");
      }
      const Block& uncle = tree.block(u);
      if (uncle.height >= b.height) {
        report(r, id, "uncle not below the referencing block");
        continue;
      }
      const int distance = static_cast<int>(b.height - uncle.height);
      if (distance < 1 || distance > horizon) {
        report(r, id, "uncle reference distance outside horizon");
      }
      if (is_ancestor_of(tree, u, id)) {
        report(r, id, "referenced an ancestor as uncle");
      }
      if (uncle.parent != kNoBlock && !is_ancestor_of(tree, uncle.parent, id)) {
        report(r, id, "uncle's parent not on the referencing chain");
      }
      if (!uncle.is_published() || uncle.published_at > b.mined_at) {
        report(r, id, "referenced a block not yet visible when mined");
      }
    }
  }

  // V4: no double reference along any root-to-leaf chain. Two references to
  // one uncle share a chain iff one referrer is an ancestor of (or is) the
  // other, so compare each uncle's few referrers pairwise instead of walking
  // every leaf to genesis. Sorted (uncle, referrer) pairs put an ancestor,
  // which has the lower id, first.
  std::vector<std::pair<BlockId, BlockId>> refs_by_uncle;
  for (BlockId id = 0; id < tree.size(); ++id) {
    for (BlockId u : tree.uncle_refs(id)) refs_by_uncle.emplace_back(u, id);
  }
  std::sort(refs_by_uncle.begin(), refs_by_uncle.end());
  for (std::size_t i = 0; i < refs_by_uncle.size(); ++i) {
    const auto [uncle, first] = refs_by_uncle[i];
    for (std::size_t j = i + 1;
         j < refs_by_uncle.size() && refs_by_uncle[j].first == uncle; ++j) {
      if (is_ancestor_of(tree, first, refs_by_uncle[j].second)) {
        report(r, first, "uncle referenced twice along one chain");
      }
    }
  }

  // V7: main chain fully published.
  if (main_tip != kNoBlock) {
    for (BlockId b : chain_from_genesis(tree, main_tip)) {
      if (!tree.is_published(b)) {
        report(r, b, "main-chain block is unpublished");
      }
    }
  }
  return r;
}

}  // namespace ethsm::chain
