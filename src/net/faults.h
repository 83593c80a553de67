// Deterministic, seeded fault injection for the P2P network simulator
// (ROADMAP: "network-level adversaries", generalized to a first-class fault
// model). Four orthogonal fault classes compose into one FaultSpec:
//
//   * per-link Bernoulli message drop (`drop`, probability per gossip
//     message);
//   * node crash/restart churn (`churn: <mean_up_ms>:<mean_down_ms>`,
//     exponentially distributed up/down times; a down node queues nothing,
//     mines nothing, and re-syncs through the orphan-buffer/parent-fetch
//     path on restart). The attacker (node 0) never churns -- Algorithm 1's
//     bookkeeping assumes the pool is always online;
//   * a timed partition with healing (`partition: <start_ms>:<heal_ms>
//     [:auto|bridge|random|attacker]`): messages crossing the cut during
//     [start, heal) are discarded. `bridge` splits along the two_clusters
//     boundary, `attacker` isolates node 0, `random` is a seeded coin-flip
//     cut, and `auto` picks bridge on two_clusters topologies and random
//     otherwise;
//   * an eclipse / relay-suppression adversary (`eclipse:
//     <victim>:<delay_ms>[:<drop_p>]`): every gossip message carrying an
//     HONEST block toward the victim is delayed by delay_ms and dropped
//     with probability drop_p, modelling an attacker that controls the
//     victim's connections and suppresses honest relays (pool blocks pass
//     untouched, so the victim keeps mining on the pool's branch in races).
//
// Determinism: every fault draw comes from a per-node xoshiro stream seeded
// with derive_seed(master_seed ^ kFaultSeedDomain, node). The engine's own
// stream (topology + latency + mining draws) is never touched, so a null
// FaultSpec is bitwise-identical to the fault-free simulator, and faulted
// runs stay bitwise-identical across thread counts and interrupt+resume.
// run_net_many_fingerprint digests the full spec so checkpoint directories
// can never mix faulted and clean records.

#ifndef ETHSM_NET_FAULTS_H
#define ETHSM_NET_FAULTS_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "net/topology.h"
#include "support/rng.h"

namespace ethsm::net {

/// Crash/restart churn; spec key `net.faults.churn`, grammar
/// `off | <mean_up_ms>:<mean_down_ms>` (both positive).
struct ChurnSpec {
  double mean_up_ms = 0.0;
  double mean_down_ms = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return mean_up_ms > 0.0 && mean_down_ms > 0.0;
  }
  friend bool operator==(const ChurnSpec&, const ChurnSpec&) = default;
};

/// Which side of the partition each node lands on (header comment).
enum class PartitionCut : std::uint8_t { automatic, bridge, random_cut, attacker };

/// Timed partition; spec key `net.faults.partition`, grammar
/// `off | <start_ms>:<heal_ms>[:auto|bridge|random|attacker]`.
struct PartitionSpec {
  bool enabled = false;
  double start_ms = 0.0;
  double heal_ms = 0.0;
  PartitionCut cut = PartitionCut::automatic;

  friend bool operator==(const PartitionSpec&, const PartitionSpec&) = default;
};

/// Eclipse / relay suppression; spec key `net.faults.eclipse`, grammar
/// `off | <victim>:<delay_ms>[:<drop_p>]` (victim is an honest node id >= 1).
struct EclipseSpec {
  std::uint32_t victim = 0;  ///< honest node id; 0 = disabled
  double delay_ms = 0.0;
  double drop = 0.0;

  [[nodiscard]] bool enabled() const noexcept { return victim != 0; }
  friend bool operator==(const EclipseSpec&, const EclipseSpec&) = default;
};

/// The composed fault model handed to NetSimConfig (all off by default).
struct FaultSpec {
  double drop = 0.0;  ///< per-gossip-message Bernoulli loss probability
  ChurnSpec churn;
  PartitionSpec partition;
  EclipseSpec eclipse;

  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || churn.enabled() || partition.enabled ||
           eclipse.enabled();
  }
  /// Precondition checks (ETHSM_EXPECTS -> std::invalid_argument); the node
  /// count bounds the eclipse victim id.
  void validate(std::uint32_t honest_nodes) const;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

// Sub-spec grammars. All parsers throw std::invalid_argument on malformed
// input.
[[nodiscard]] ChurnSpec parse_churn_spec(std::string_view text);
[[nodiscard]] PartitionSpec parse_partition_spec(std::string_view text);
[[nodiscard]] EclipseSpec parse_eclipse_spec(std::string_view text);

/// Domain separator for the per-node fault streams: keeps them provably
/// disjoint from the per-run seeds derive_seed(master, run) hands the engine.
inline constexpr std::uint64_t kFaultSeedDomain = 0x00fa'117e'd5ee'd001ULL;

/// Runtime fault sampler owned by one engine run. Single-threaded, like the
/// engine itself; determinism across thread counts holds because each run is
/// a pure function of its derived seed.
class FaultModel {
 public:
  FaultModel(const FaultSpec& spec, std::uint32_t num_nodes,
             TopologyKind topology, std::uint64_t seed);

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] bool churn_enabled() const noexcept {
    return spec_.churn.enabled();
  }
  /// Whether eclipse_cuts() or eclipse_extra_delay() can fire in this run,
  /// fixed at construction, so the engine skips both (and the block read
  /// they need) per message when neither can.
  [[nodiscard]] bool eclipse_live() const noexcept { return eclipse_live_; }

  /// True while a partition cut separates src and dst at time `now`.
  [[nodiscard]] bool severed(std::uint32_t src, std::uint32_t dst,
                             double now) const noexcept {
    return spec_.partition.enabled && now >= spec_.partition.start_ms &&
           now < spec_.partition.heal_ms && side_[src] != side_[dst];
  }
  /// Bernoulli link-loss draw from the sender's stream (drop > 0 only).
  [[nodiscard]] bool drops_message(std::uint32_t src) {
    return spec_.drop > 0.0 && stream(src).bernoulli(spec_.drop);
  }
  /// Eclipse drop draw for an honest-block message toward the victim.
  [[nodiscard]] bool eclipse_cuts(std::uint32_t dst, bool honest_block);
  /// Extra latency the eclipse adds to a surviving honest-block message.
  [[nodiscard]] double eclipse_extra_delay(std::uint32_t dst,
                                           bool honest_block) const noexcept;

  /// Exponential up/down durations from the node's own stream.
  [[nodiscard]] double sample_uptime_ms(std::uint32_t node);
  [[nodiscard]] double sample_downtime_ms(std::uint32_t node);

 private:
  [[nodiscard]] support::Xoshiro256& stream(std::uint32_t node) {
    return streams_[node];
  }
  /// The spec-only conditions of eclipse_cuts() and eclipse_extra_delay().
  [[nodiscard]] bool eclipse_drops() const noexcept {
    return spec_.eclipse.drop > 0.0;
  }
  [[nodiscard]] bool eclipse_delays() const noexcept {
    return spec_.eclipse.enabled();
  }

  FaultSpec spec_;
  bool active_ = false;
  bool eclipse_live_ = false;
  std::vector<support::Xoshiro256> streams_;  ///< one per node, fault domain
  std::vector<std::uint8_t> side_;            ///< partition side per node
};

}  // namespace ethsm::net

#endif  // ETHSM_NET_FAULTS_H
