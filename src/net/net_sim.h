// Event-driven P2P network simulator with an ENDOGENOUS gamma.
//
// The paper (and this library's Markov model + aggregate simulator) treats
// gamma -- the fraction of honest hash power that mines on the pool's branch
// during a race -- as an exogenous input. In reality gamma emerges from block
// propagation over a peer-to-peer topology: whoever's block reaches a miner
// first wins that miner's hash power (first-seen tie-breaking). This module
// simulates exactly that and *measures* gamma instead of assuming it:
//
//   * one attacker node (node 0) running the one attack state machine,
//     miner::SelfishPolicy, with the default Strategy (exactly Algorithm 1)
//     and the node's own uncle-visibility mask, plus N honest miner nodes
//     with equal hash shares of 1 - alpha;
//   * a seeded topology (net/topology.h) with per-link latency distributions;
//   * a gossip protocol: a node's OWN new blocks (and the attacker's
//     publications) spread via the announce -> request -> deliver handshake
//     (three link crossings), relays of received blocks are either pushed
//     directly (RelayMode::push, one crossing, Ethereum's NewBlock-style
//     cut-through -- the default) or re-announced (RelayMode::announce);
//     duplicate announces/delivers are suppressed, out-of-order deliveries
//     wait for their parent;
//   * deterministic discrete events on an EventQueue with stable (time, seq)
//     ordering (net/event_queue.h): gossip sent in arrival order rides its
//     O(1) FIFO lane, out-of-order sends and the self-scheduled mine and
//     churn timers its heap lane, and the pop order is the single-heap order
//     either way. Messages over ZERO-latency links are dispatched inline
//     (depth-first) within the sending event: with 0 ms links the network
//     degenerates to the paper's aggregate model where the attacker rushes --
//     it hears a racing honest block and floods its match within the same
//     instant, so a 0 ms complete graph measures gamma -> 1, while any
//     positive latency makes relays strictly causal and a star routed through
//     the attacker measures gamma -> 0 (honest relays beat the attacker's
//     fresh-block handshake by two crossings).
//
// A node admitting a block first hands it to its local miner (the attacker's
// policy may react by publishing) and then relays it. The attacker follows
// the relay protocol for honest blocks; withholding-as-a-hub strategies are
// future knobs.
//
// Honest blocks that do not fit Algorithm 1's two-branch public view (natural
// latency forks among honest nodes) are invisible to the policy: forks below
// the tracked public height are ignored (counted as natural_forks), and an
// untracked branch overtaking the attacker's private chain triggers a resync
// -- publish everything, restart Algorithm 1 from the higher tip (counted as
// resyncs). At realistic latencies both counters stay tiny; at extreme
// latencies they are the honest signal that the attack model degrades.
//
// Measured gamma: every honest mining event whose local best-height tip set
// contains both a pool block and an honest block is a race sample; the sample
// counts toward gamma when the first-seen tip (the parent actually mined on)
// is the pool's.

#ifndef ETHSM_NET_NET_SIM_H
#define ETHSM_NET_NET_SIM_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "net/faults.h"
#include "net/topology.h"
#include "rewards/reward_schedule.h"
#include "sim/sim_result.h"
#include "support/checkpoint.h"
#include "support/stats.h"

namespace ethsm::net {

/// Mean block inter-arrival time in simulated milliseconds (Ethereum ~14 s);
/// link latencies (net/topology.h) are milliseconds against this interval.
inline constexpr double kBlockIntervalMs = 14'000.0;

/// How a node forwards a block it received (spec key `net.relay`): `push`
/// sends the body directly (one crossing); `announce` restarts the
/// announce -> request -> deliver handshake (three crossings).
enum class RelayMode { push, announce };

[[nodiscard]] std::string_view to_string(RelayMode mode) noexcept;
/// Throws std::invalid_argument on anything but "push" / "announce".
[[nodiscard]] RelayMode relay_mode_from_string(std::string_view s);

struct NetSimConfig {
  /// Attacker's share of total hash power; each of the `honest_nodes` honest
  /// miners holds (1 - alpha) / honest_nodes.
  double alpha = 0.3;
  std::uint32_t honest_nodes = 16;
  TopologySpec topology;   ///< default: complete graph
  LatencySpec latency;     ///< default: fixed:0 (the rushing-attacker limit)
  RelayMode relay = RelayMode::push;
  /// Seeded fault injection (net/faults.h); all off by default, in which
  /// case the engine is bitwise-identical to the fault-free simulator.
  FaultSpec faults;
  std::uint64_t num_blocks = 100'000;
  std::uint64_t seed = 0x9e7ca57ULL;
  rewards::RewardConfig rewards = rewards::RewardConfig::ethereum_byzantium();

  void validate() const;
};

/// One network run. Revenue/normalization accounting reuses sim::SimResult
/// (ledger + mined counts); `sim.duration` is in simulated milliseconds.
struct NetSimResult {
  sim::SimResult sim;

  // Endogenous gamma: race_pool_choices / race_samples.
  std::uint64_t race_samples = 0;
  std::uint64_t race_pool_choices = 0;

  // Attack-model robustness diagnostics (see header comment).
  std::uint64_t natural_forks = 0;
  std::uint64_t resyncs = 0;

  /// Discrete events processed (queue pops + inline zero-latency dispatches).
  std::uint64_t events_processed = 0;

  // Fault-injection accounting (net/faults.h); all zero on a clean network.
  std::uint64_t faults_messages_dropped = 0;  ///< drop + partition + eclipse
  std::uint64_t faults_mining_lost = 0;       ///< honest mines on down nodes
  std::uint64_t faults_downtime_events = 0;   ///< churn crash transitions

  /// Honest blocks mined / gone stale (incl. referenced uncles), bucketed by
  /// the mining node's hop distance from the attacker.
  std::vector<std::uint64_t> distance_blocks;
  std::vector<std::uint64_t> distance_stale;

  [[nodiscard]] double measured_gamma() const noexcept {
    return race_samples == 0 ? 0.0
                             : static_cast<double>(race_pool_choices) /
                                   static_cast<double>(race_samples);
  }
};

/// Runs one network simulation; deterministic given config.seed (the topology
/// and every latency draw derive from it).
[[nodiscard]] NetSimResult run_net_simulation(const NetSimConfig& config);

/// Mean/CI aggregation across independent runs.
struct NetMultiRunSummary {
  support::RunningStats gamma;
  support::RunningStats pool_revenue_s1;
  support::RunningStats pool_revenue_s2;
  support::RunningStats honest_revenue_s1;
  support::RunningStats honest_revenue_s2;
  support::RunningStats pool_share;
  support::RunningStats uncle_rate;
  support::RunningStats stale_rate;  ///< all stale (incl. uncles) / regular
  /// Sums across runs, index = hop distance from the attacker.
  std::vector<std::uint64_t> distance_blocks;
  std::vector<std::uint64_t> distance_stale;
  std::uint64_t race_samples = 0;
  std::uint64_t natural_forks = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t faults_messages_dropped = 0;
  std::uint64_t faults_mining_lost = 0;
  std::uint64_t faults_downtime_events = 0;
  int runs = 0;

  void absorb(const NetSimResult& r);

  [[nodiscard]] const support::RunningStats& pool_revenue(
      sim::Scenario s) const noexcept {
    return s == sim::Scenario::regular_rate_one ? pool_revenue_s1
                                                : pool_revenue_s2;
  }
  [[nodiscard]] const support::RunningStats& honest_revenue(
      sim::Scenario s) const noexcept {
    return s == sim::Scenario::regular_rate_one ? honest_revenue_s1
                                                : honest_revenue_s2;
  }
};

/// Runs `runs` independent simulations (seeds derived from config.seed) in
/// parallel on the global pool; aggregates in run order, bitwise-identical
/// for any thread count. Checkpoint/outcome contract as sim::run_many.
[[nodiscard]] NetMultiRunSummary run_net_many(
    const NetSimConfig& config, int runs,
    const support::SweepCheckpoint& checkpoint = {},
    support::SweepOutcome* outcome = nullptr);

/// run_net_many over a list of configurations in one pool region (one job
/// budget, one outcome); summary k is exactly run_net_many(configs[k], ...).
[[nodiscard]] std::vector<NetMultiRunSummary> run_net_many(
    const std::vector<NetSimConfig>& configs, int runs,
    const support::SweepCheckpoint& checkpoint = {},
    support::SweepOutcome* outcome = nullptr);

/// Checkpoint-store fingerprint of a run_net_many sweep (checkpoint GC).
[[nodiscard]] std::uint64_t run_net_many_fingerprint(const NetSimConfig& config,
                                                     int runs);

}  // namespace ethsm::net

namespace ethsm::support {

template <>
struct CheckpointCodec<net::NetSimResult> {
  static void encode(ByteWriter& w, const net::NetSimResult& result);
  static net::NetSimResult decode(ByteReader& r);
};

}  // namespace ethsm::support

#endif  // ETHSM_NET_NET_SIM_H
