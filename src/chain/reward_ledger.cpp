#include "chain/reward_ledger.h"

#include <algorithm>

#include "support/check.h"

namespace ethsm::chain {

namespace {

/// Sets `fate` to regular for the main chain genesis..main_tip and stale for
/// every other block (index = BlockId).
void mark_main_chain(const BlockTree& tree, BlockId main_tip,
                     std::vector<BlockFate>& fate) {
  ETHSM_EXPECTS(main_tip < tree.size(), "unknown block id");
  fate.assign(tree.size(), BlockFate::stale);
  for (BlockId cur = main_tip; cur != kNoBlock; cur = tree.parent(cur)) {
    fate[cur] = BlockFate::regular;
  }
}

/// Marks `uncle`, referenced from the main chain, as a referenced uncle;
/// true the first time.
bool mark_referenced(std::vector<BlockFate>& fate, BlockId uncle) {
  ETHSM_ENSURES(fate[uncle] != BlockFate::regular,
                "a main-chain block cannot be referenced as an uncle");
  if (fate[uncle] == BlockFate::referenced_uncle) return false;
  fate[uncle] = BlockFate::referenced_uncle;
  return true;
}

}  // namespace

std::vector<BlockFate> classify_blocks(const BlockTree& tree,
                                       BlockId main_tip) {
  std::vector<BlockFate> fate;
  mark_main_chain(tree, main_tip, fate);
  for (BlockId b = 0; b < tree.size(); ++b) {
    if (fate[b] != BlockFate::regular) continue;
    for (BlockId u : tree.uncle_refs(b)) mark_referenced(fate, u);
  }
  return fate;
}

LedgerResult settle_rewards(const BlockTree& tree, BlockId main_tip,
                            const rewards::RewardConfig& config,
                            std::uint32_t num_miners) {
  LedgerResult result;
  if (num_miners > 0) result.per_miner_reward.assign(num_miners, 0.0);

  auto pay = [&result](MinerClass c, std::uint32_t miner_id, double amount,
                       double ClassRewards::* component) {
    result.rewards[static_cast<std::size_t>(c)].*component += amount;
    if (!result.per_miner_reward.empty()) {
      ETHSM_EXPECTS(miner_id < result.per_miner_reward.size(),
                    "miner id out of range for per-miner accounting");
      result.per_miner_reward[miner_id] += amount;
    }
  };
  auto fates_of = [&result](MinerClass c) -> FateCounts& {
    return result.fates[static_cast<std::size_t>(c)];
  };

  // One main-chain walk per run, into a buffer each thread reuses.
  thread_local std::vector<BlockFate> fate;
  mark_main_chain(tree, main_tip, fate);

  // Pay in id order, which is genesis -> tip on the main chain (ids grow
  // along it), so the floating-point sums keep their order. Skip genesis
  // (id 0): it predates the experiment and earns nothing.
  for (BlockId id = 1; id < tree.size(); ++id) {
    if (fate[id] != BlockFate::regular) continue;
    const Block& nephew = tree.block(id);
    pay(nephew.miner, nephew.miner_id, 1.0, &ClassRewards::static_reward);
    ++fates_of(nephew.miner).regular;

    for (BlockId uid : tree.uncle_refs(id)) {
      const Block& uncle = tree.block(uid);
      ETHSM_ENSURES(uncle.height < nephew.height,
                    "uncle must be below its nephew");
      if (mark_referenced(fate, uid)) ++fates_of(uncle.miner).referenced_uncle;
      const int distance = static_cast<int>(nephew.height - uncle.height);
      pay(uncle.miner, uncle.miner_id, config.uncle_reward(distance),
          &ClassRewards::uncle_reward);
      pay(nephew.miner, nephew.miner_id, config.nephew_reward(distance),
          &ClassRewards::nephew_reward);
      result.uncle_distance[static_cast<std::size_t>(uncle.miner)].add(
          static_cast<std::size_t>(std::min(distance, 7)));
    }
  }

  // Every non-genesis block is regular, a referenced uncle or stale.
  for (const MinerClass c : {MinerClass::honest, MinerClass::selfish}) {
    FateCounts& counts = fates_of(c);
    counts.stale =
        tree.mined_count(c) - counts.regular - counts.referenced_uncle;
  }
  return result;
}

}  // namespace ethsm::chain

namespace ethsm::support {

void CheckpointCodec<chain::LedgerResult>::encode(
    ByteWriter& w, const chain::LedgerResult& ledger) {
  for (const auto& rewards : ledger.rewards) {
    w.f64(rewards.static_reward);
    w.f64(rewards.uncle_reward);
    w.f64(rewards.nephew_reward);
  }
  for (const auto& fates : ledger.fates) {
    w.u64(fates.regular);
    w.u64(fates.referenced_uncle);
    w.u64(fates.stale);
  }
  for (const auto& histogram : ledger.uncle_distance) {
    CheckpointCodec<Histogram>::encode(w, histogram);
  }
  w.f64_vec(ledger.per_miner_reward);
}

chain::LedgerResult CheckpointCodec<chain::LedgerResult>::decode(
    ByteReader& r) {
  chain::LedgerResult ledger;
  for (auto& rewards : ledger.rewards) {
    rewards.static_reward = r.f64();
    rewards.uncle_reward = r.f64();
    rewards.nephew_reward = r.f64();
  }
  for (auto& fates : ledger.fates) {
    fates.regular = r.u64();
    fates.referenced_uncle = r.u64();
    fates.stale = r.u64();
  }
  for (auto& histogram : ledger.uncle_distance) {
    histogram = CheckpointCodec<Histogram>::decode(r);
  }
  ledger.per_miner_reward = r.f64_vec();
  return ledger;
}

}  // namespace ethsm::support
