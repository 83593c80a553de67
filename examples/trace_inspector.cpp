// Trace inspector: replays the paper's worked examples (Fig. 4 and Fig. 5)
// through the real Algorithm-1 state machine, printing the block tree, the
// (Ls, Lh) trajectory and the publication decisions after every event --
// the fastest way to understand what the strategy actually does.

#include <iostream>
#include <string>

#include "chain/reward_ledger.h"
#include "miner/honest_policy.h"
#include "miner/selfish_policy.h"
#include "support/table.h"

namespace {

using namespace ethsm;

class Narrator {
 public:
  Narrator()
      : config_(rewards::RewardConfig::ethereum_byzantium()),
        pool_(tree_, config_),
        honest_(0.5, config_) {}

  chain::BlockId pool_mines(const std::string& label) {
    const auto id = pool_.on_pool_block(++now_);
    names_.resize(tree_.size());
    names_[id] = label;
    narrate("pool mines " + label + " (kept private)");
    return id;
  }

  chain::BlockId honest_mines(const std::string& label, chain::BlockId parent) {
    const auto id = honest_.mine_block(tree_, parent, ++now_, 0);
    names_.resize(tree_.size());
    names_[id] = label;
    pool_.on_honest_block(id, now_);
    narrate("honest miner publishes " + label + " on " + name(parent));
    return id;
  }

  void finish() {
    const auto tip = pool_.finalize(++now_);
    std::cout << "\nFinal main chain: ";
    for (std::uint32_t h = 0; h <= tree_.height(tip); ++h) {
      std::cout << name(tree_.ancestor_at_height(tip, h)) << ' ';
    }
    const auto ledger = chain::settle_rewards(tree_, tip, config_);
    std::cout << "\nPool rewards:   static "
              << ledger.of(chain::MinerClass::selfish).static_reward
              << ", uncle "
              << ledger.of(chain::MinerClass::selfish).uncle_reward
              << ", nephew "
              << ledger.of(chain::MinerClass::selfish).nephew_reward;
    std::cout << "\nHonest rewards: static "
              << ledger.of(chain::MinerClass::honest).static_reward
              << ", uncle "
              << ledger.of(chain::MinerClass::honest).uncle_reward
              << ", nephew "
              << ledger.of(chain::MinerClass::honest).nephew_reward << "\n";
  }

  [[nodiscard]] chain::BlockId genesis() const { return tree_.genesis(); }
  [[nodiscard]] const miner::SelfishPolicy& pool() const { return pool_; }

 private:
  [[nodiscard]] std::string name(chain::BlockId id) const {
    if (id == tree_.genesis()) return "genesis";
    return names_[id].empty() ? "#" + std::to_string(id) : names_[id];
  }

  void narrate(const std::string& event) {
    std::cout << event << "\n   -> (Ls, Lh) = (" << pool_.private_length()
              << ", " << pool_.public_length() << ")";
    std::cout << ", published pool blocks: ";
    bool any = false;
    for (chain::BlockId b = 1; b < tree_.size(); ++b) {
      if (tree_.block(b).miner == chain::MinerClass::selfish &&
          tree_.is_published(b)) {
        std::cout << name(b) << ' ';
        any = true;
      }
    }
    if (!any) std::cout << "(none)";
    std::cout << "\n";
  }

  chain::BlockTree tree_;
  rewards::RewardConfig config_;
  miner::SelfishPolicy pool_;
  miner::HonestPolicy honest_;
  std::vector<std::string> names_;
  double now_ = 0.0;
};

}  // namespace

int main() {
  std::cout << "== Replaying Fig. 5: withhold 3, bleed 1, override ==\n\n";
  {
    Narrator n;
    n.pool_mines("A1");
    n.pool_mines("B1");
    n.pool_mines("C1");
    const auto a2 = n.honest_mines("A2", n.genesis());
    n.honest_mines("B2", a2);
    n.finish();
  }

  std::cout << "\n== Replaying Fig. 4's race (extended by one pool block so "
               "line 20 fires): partial publication and re-rooting ==\n\n";
  {
    Narrator n;
    n.pool_mines("D1");
    n.pool_mines("E1");
    n.pool_mines("F");
    n.pool_mines("G");
    n.pool_mines("I");  // lead deep enough that the re-root branch triggers
    const auto d2 = n.honest_mines("D2", n.genesis());
    n.honest_mines("E2", d2);
    // Honest lands on the pool's published prefix: Algorithm 1 line 20
    // re-roots the race at E1 with (Ls, Lh) = (3, 1).
    n.honest_mines("H", n.pool().published_pool_tip());
    n.finish();
  }
  return 0;
}
