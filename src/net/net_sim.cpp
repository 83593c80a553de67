#include "net/net_sim.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "chain/block_tree.h"
#include "chain/reward_ledger.h"
#include "chain/uncle_index.h"
#include "miner/selfish_policy.h"
#include "net/event_queue.h"
#include "support/check.h"
#include "support/metrics.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/trace.h"

namespace ethsm::net {

namespace {

using chain::BlockId;
using chain::kNoBlock;

enum class MsgType : std::uint8_t { mine, announce, request, deliver, churn };

struct Msg {
  MsgType type = MsgType::mine;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  BlockId block = kNoBlock;
  /// The (src, dst) link's latency model -- points into the Topology's
  /// adjacency storage (stable for the run). Links are symmetric, so
  /// request/deliver replies reuse it instead of re-scanning the sender's
  /// adjacency list on every handshake hop.
  const LatencySpec* link = nullptr;
};

/// Sentinel peer for messages without an origin (mine events, fresh blocks).
constexpr std::uint32_t kNoPeer = static_cast<std::uint32_t>(-1);

/// One run of the network simulation. Single-threaded; the multi-run driver
/// fans whole runs out across the pool.
class Engine {
 public:
  explicit Engine(const NetSimConfig& config)
      : config_(config),
        rng_(config.seed),
        // Topology first: random:<p> link sampling consumes a deterministic
        // prefix of the run's stream before any simulation draw.
        topo_(build_topology(config.topology, config.honest_nodes,
                             config.latency, rng_)),
        tree_(chain::thread_local_tree(config.num_blocks + 1)),
        horizon_(config.rewards.reference_horizon()),
        max_refs_(config.rewards.max_uncles_per_block),
        n_(topo_.num_nodes()),
        stride_(config.num_blocks + 2),
        known_(static_cast<std::size_t>(n_) * stride_, 0),
        requested_(static_cast<std::size_t>(n_) * stride_, 0),
        policy_(tree_, config.rewards, {}, known_span(0)),
        faults_(config.faults, n_, config.topology.kind, config.seed),
        down_(n_, 0) {
    views_.resize(n_);
    pending_.resize(n_);
    for (std::uint32_t u = 0; u < n_; ++u) {
      known_[flat(u, tree_.genesis())] = 1;
      views_[u].tips.push_back(tree_.genesis());
    }
  }

  NetSimResult run() {
    if (faults_.churn_enabled()) {
      // The attacker (node 0) never churns; Algorithm 1 assumes the pool is
      // always online. Each honest node's first crash is one mean uptime out.
      for (std::uint32_t v = 1; v < n_; ++v) {
        queue_.push_timer(faults_.sample_uptime_ms(v), churn_msg(v));
      }
    }
    schedule_next_mine(0.0);
    while (!queue_.empty() && blocks_mined_ < config_.num_blocks) {
      const auto entry = queue_.pop();
      now_ = entry.time;
      handle(entry.payload, entry.time);
    }
    // In-flight messages after the last block cannot change any accounting
    // (knowledge only matters at mining time); finalize and settle.
    (void)policy_.finalize(now_);
    drain_publications(now_);

    result_.sim.blocks_mined_pool = tree_.mined_count(chain::MinerClass::selfish);
    result_.sim.blocks_mined_honest =
        tree_.mined_count(chain::MinerClass::honest);
    result_.sim.duration = now_;
    const BlockId winner = winning_tip();
    result_.sim.ledger = chain::settle_rewards(tree_, winner, config_.rewards);
    fill_distance_stats(winner);
    return result_;
  }

 private:
  [[nodiscard]] std::size_t flat(std::uint32_t node, BlockId b) const {
    return static_cast<std::size_t>(node) * stride_ + b;
  }
  [[nodiscard]] bool knows(std::uint32_t node, BlockId b) const {
    return known_[flat(node, b)] != 0;
  }
  [[nodiscard]] std::span<const std::uint8_t> known_span(
      std::uint32_t node) const {
    return {known_.data() + static_cast<std::size_t>(node) * stride_, stride_};
  }

  /// Mining and churn events are timers (EventQueue::push_timer): they are
  /// scheduled far ahead and would otherwise knock gossip off the FIFO lane.
  void schedule_next_mine(double now) {
    queue_.push_timer(now + rng_.exponential(1.0 / kBlockIntervalMs), Msg{});
  }

  /// Sends a message over the (src, dst) link, whose latency model the
  /// caller passes (senders are always iterating an adjacency list or
  /// answering a message that carries its link). Zero-latency draws dispatch
  /// inline (depth-first) -- see the header comment for why that is the
  /// rushing-attacker limit -- positive latencies go through the event queue.
  void send(MsgType type, std::uint32_t src, std::uint32_t dst, BlockId b,
            double now, const LatencySpec& latency) {
    double extra_delay = 0.0;
    if (faults_.active()) {
      // Fault draws come from the per-node fault streams, never from rng_:
      // a null FaultSpec leaves the engine's stream untouched bit for bit.
      const bool honest_block =
          b != kNoBlock && tree_.block(b).miner == chain::MinerClass::honest;
      if (faults_.severed(src, dst, now) || faults_.drops_message(src) ||
          faults_.eclipse_cuts(dst, honest_block)) {
        ++result_.faults_messages_dropped;
        return;
      }
      extra_delay = faults_.eclipse_extra_delay(dst, honest_block);
    }
    Msg msg;
    msg.type = type;
    msg.src = src;
    msg.dst = dst;
    msg.block = b;
    msg.link = &latency;
    const double delay = latency.sample(rng_) + extra_delay;
    if (delay <= 0.0) {
      handle(msg, now);
    } else {
      queue_.push(now + delay, msg);
    }
  }

  void handle(const Msg& msg, double now) {
    ++result_.events_processed;
    if (msg.type != MsgType::mine && msg.type != MsgType::churn &&
        down_[msg.dst] != 0) {
      // A crashed node queues nothing; in-flight traffic toward it is lost.
      ++result_.faults_messages_dropped;
      return;
    }
    switch (msg.type) {
      case MsgType::mine:
        on_mine(now);
        break;
      case MsgType::announce:
        on_announce(msg, now);
        break;
      case MsgType::request:
        on_request(msg, now);
        break;
      case MsgType::deliver:
        on_deliver(msg, now);
        break;
      case MsgType::churn:
        on_churn(msg.dst, now);
        break;
    }
  }

  // ------------------------------------------------------------- protocol --

  /// Fresh blocks (a miner's own, the attacker's publications) start the
  /// announce -> request -> deliver handshake toward every neighbor.
  void announce_new(std::uint32_t owner, BlockId b, double now) {
    for (const Link& l : topo_.adjacency[owner]) {
      send(MsgType::announce, owner, l.peer, b, now, l.latency);
    }
  }

  void on_announce(const Msg& msg, double now) {
    const std::size_t slot = flat(msg.dst, msg.block);
    if (known_[slot] != 0) return;  // duplicate
    // With faults active an earlier request (or its deliver) may have been
    // lost, so every fresh announce retries; delivers dedup on known_.
    if (!faults_.active() && requested_[slot] != 0) return;
    requested_[slot] = 1;
    send(MsgType::request, msg.dst, msg.src, msg.block, now, *msg.link);
  }

  void on_request(const Msg& msg, double now) {
    // Only nodes that announced or relayed a block (or its child) are asked
    // for it, and both imply they hold it; knowledge is monotonic even
    // across crashes, so this holds under faults too.
    ETHSM_ASSERT(knows(msg.dst, msg.block));
    send(MsgType::deliver, msg.dst, msg.src, msg.block, now, *msg.link);
  }

  void on_deliver(const Msg& msg, double now) {
    const std::uint32_t u = msg.dst;
    const BlockId b = msg.block;
    if (knows(u, b)) return;  // duplicate push
    const BlockId parent = tree_.parent(b);
    if (!knows(u, parent)) {
      // Fault-mode re-sync: a restarted (or message-starved) node may have
      // missed the parent entirely, so fetch it from the relayer -- which
      // admitted b and therefore holds its whole ancestry. Walking the
      // chain backwards one hop per deliver rebuilds the gap. On a clean
      // network gossip always re-sends parents, so no fetch is needed.
      if (faults_.active()) {
        send(MsgType::request, u, msg.src, parent, now, *msg.link);
      }
      for (const auto& [pb, ps] : pending_[u]) {
        if (pb == b) return;  // already waiting on its parent
      }
      pending_[u].emplace_back(b, msg.src);  // admit once the parent arrives
      return;
    }
    admit(u, b, now, msg.src);
  }

  // --------------------------------------------------------------- faults --

  [[nodiscard]] static Msg churn_msg(std::uint32_t node) {
    Msg msg;
    msg.type = MsgType::churn;
    msg.dst = node;
    return msg;
  }

  /// Self-rescheduling crash/restart toggle for one honest node.
  void on_churn(std::uint32_t v, double now) {
    if (down_[v] == 0) {
      down_[v] = 1;
      ++result_.faults_downtime_events;
      // The crash loses the orphan buffer; known_ survives (the node keeps
      // its chain database) and gaps re-sync via the parent-fetch path.
      pending_[v].clear();
      queue_.push_timer(now + faults_.sample_downtime_ms(v), churn_msg(v));
    } else {
      down_[v] = 0;
      queue_.push_timer(now + faults_.sample_uptime_ms(v), churn_msg(v));
    }
  }

  /// A block became part of node u's view: update the first-seen tip set,
  /// hand it to the local miner (the attacker may publish), relay it, then
  /// admit any orphans that were waiting for it.
  void admit(std::uint32_t u, BlockId b, double now, std::uint32_t from) {
    learn(u, b);
    if (u == 0 && tree_.block(b).miner == chain::MinerClass::honest) {
      attacker_on_honest(b, now);
    }
    relay(u, b, now, from);

    auto& pending = pending_[u];
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        const auto [pb, ps] = pending[i];
        if (!knows(u, tree_.parent(pb))) continue;
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        admit(u, pb, now, ps);
        progressed = true;
        break;
      }
    }
  }

  void learn(std::uint32_t u, BlockId b) {
    known_[flat(u, b)] = 1;
    NodeView& view = views_[u];
    const std::uint32_t h = tree_.height(b);
    if (h > view.best_height) {
      view.best_height = h;
      view.tips.clear();
      view.tips.push_back(b);
    } else if (h == view.best_height) {
      view.tips.push_back(b);
    }
  }

  void relay(std::uint32_t u, BlockId b, double now, std::uint32_t from) {
    const MsgType forward =
        config_.relay == RelayMode::push ? MsgType::deliver : MsgType::announce;
    for (const Link& l : topo_.adjacency[u]) {
      if (l.peer == from) continue;
      send(forward, u, l.peer, b, now, l.latency);
    }
  }

  // --------------------------------------------------------------- mining --

  void on_mine(double now) {
    ++blocks_mined_;
    if (blocks_mined_ < config_.num_blocks) schedule_next_mine(now);
    if (rng_.bernoulli(config_.alpha)) {
      mine_pool(now);
    } else {
      const auto v = 1 + static_cast<std::uint32_t>(
                             rng_.uniform_below(config_.honest_nodes));
      if (down_[v] != 0) {
        // A crashed miner's hash power is simply lost for this interval.
        ++result_.faults_mining_lost;
        return;
      }
      mine_honest(v, now);
    }
  }

  void mine_pool(double now) {
    const BlockId id = policy_.on_pool_block(now);
    known_[flat(0, id)] = 1;  // private: gossip starts at publication
    pool_created_.push_back(id);
    drain_publications(now);
  }

  void mine_honest(std::uint32_t v, double now) {
    NodeView& view = views_[v];
    const BlockId parent = view.tips.front();  // first-seen at best height

    // Endogenous gamma: a race is live for this miner when its best-height
    // tips include both a pool and an honest block; first-seen decides.
    bool has_pool = false;
    bool has_honest = false;
    for (BlockId t : view.tips) {
      (tree_.block(t).miner == chain::MinerClass::selfish ? has_pool
                                                          : has_honest) = true;
    }
    if (has_pool && has_honest) {
      ++result_.race_samples;
      if (tree_.block(parent).miner == chain::MinerClass::selfish) {
        ++result_.race_pool_choices;
      }
    }

    scratch_.refs.clear();
    if (horizon_ > 0) {
      chain::collect_uncle_references(tree_, parent, horizon_, max_refs_,
                                      scratch_, known_span(v));
    }
    const BlockId id = tree_.append(parent, chain::MinerClass::honest, v, now,
                                    scratch_.refs);
    tree_.publish(id, now);
    learn(v, id);
    announce_new(v, id, now);
  }

  /// Hands the attacker's publications (in creation order; Algorithm 1 never
  /// abandons unpublished work) to the gossip layer.
  void drain_publications(double now) {
    while (publish_cursor_ < pool_created_.size() &&
           tree_.is_published(pool_created_[publish_cursor_])) {
      announce_new(0, pool_created_[publish_cursor_++], now);
    }
  }

  /// Feeds an honest block to Algorithm 1 when it fits the tracked two-branch
  /// public view; classifies it as a natural latency fork or a resync
  /// otherwise (header comment).
  void attacker_on_honest(BlockId b, double now) {
    const BlockId parent = tree_.parent(b);
    const miner::PublicView view = policy_.public_view();
    const bool fits = view.tie ? (parent == view.pool_branch_tip ||
                                  parent == view.honest_branch_tip)
                               : (parent == view.consensus_tip);
    if (fits) {
      policy_.on_honest_block(b, now);
      drain_publications(now);
      return;
    }

    const std::uint32_t public_height =
        tree_.height(view.tie ? view.pool_branch_tip : view.consensus_tip);
    const std::uint32_t b_height = tree_.height(b);
    const BlockId private_tip = policy_.private_tip();
    const std::uint32_t private_height = tree_.height(private_tip);
    if (b_height <= public_height || b_height + 1 < private_height) {
      // Below the tracked race, or the private lead still covers it.
      ++result_.natural_forks;
      return;
    }
    // An untracked branch caught up with the private chain: release
    // everything (the last chance to win with a strictly longer chain) and
    // restart Algorithm 1 from whichever tip stands taller.
    ++result_.resyncs;
    (void)policy_.finalize(now);
    drain_publications(now);
    policy_.rebase(private_height >= b_height ? private_tip : b);
  }

  // ----------------------------------------------------------- settlement --

  /// Network consensus once everything is published: max height, then
  /// earliest publication (what the first-seen rule converges to), then
  /// lowest id for full determinism.
  [[nodiscard]] BlockId winning_tip() const {
    BlockId best = tree_.genesis();
    for (BlockId b = 1; b < static_cast<BlockId>(tree_.size()); ++b) {
      const auto& blk = tree_.block(b);
      const auto& cur = tree_.block(best);
      if (blk.height != cur.height) {
        if (blk.height > cur.height) best = b;
      } else if (blk.published_at != cur.published_at) {
        if (blk.published_at < cur.published_at) best = b;
      }
    }
    return best;
  }

  void fill_distance_stats(BlockId winner) {
    const std::uint32_t max_hop =
        *std::max_element(topo_.hop_from_attacker.begin(),
                          topo_.hop_from_attacker.end());
    result_.distance_blocks.assign(max_hop + 1, 0);
    result_.distance_stale.assign(max_hop + 1, 0);
    const auto fates = chain::classify_blocks(tree_, winner);
    for (BlockId b = 1; b < static_cast<BlockId>(tree_.size()); ++b) {
      const auto& blk = tree_.block(b);
      if (blk.miner != chain::MinerClass::honest) continue;
      const std::uint32_t d = topo_.hop_from_attacker[blk.miner_id];
      ++result_.distance_blocks[d];
      if (fates[b] != chain::BlockFate::regular) ++result_.distance_stale[d];
    }
  }

  struct NodeView {
    std::uint32_t best_height = 0;
    std::vector<BlockId> tips;  ///< blocks at best_height, first-seen first
  };

  const NetSimConfig& config_;
  support::Xoshiro256 rng_;
  Topology topo_;
  chain::BlockTree& tree_;
  const int horizon_;
  const int max_refs_;
  const std::uint32_t n_;
  const std::size_t stride_;
  // known_ must be initialized before policy_: the policy's uncle-visibility
  // span aliases the attacker's slice of it, so published honest blocks the
  // attacker has not physically received yet are not referencable as uncles.
  // known_ never reallocates, so the span stays valid for the run.
  std::vector<std::uint8_t> known_;      ///< node-major [node][block]
  std::vector<std::uint8_t> requested_;  ///< announce-handshake dedup
  miner::SelfishPolicy policy_;
  FaultModel faults_;
  std::vector<std::uint8_t> down_;  ///< crashed-by-churn flag per node

  EventQueue<Msg> queue_;
  std::vector<NodeView> views_;
  std::vector<std::vector<std::pair<BlockId, std::uint32_t>>> pending_;
  std::vector<BlockId> pool_created_;
  std::size_t publish_cursor_ = 0;
  chain::UncleScratch scratch_;

  std::uint64_t blocks_mined_ = 0;
  double now_ = 0.0;
  NetSimResult result_;
};

}  // namespace

std::string_view to_string(RelayMode mode) noexcept {
  return mode == RelayMode::push ? "push" : "announce";
}

RelayMode relay_mode_from_string(std::string_view s) {
  if (s == "push") return RelayMode::push;
  if (s == "announce") return RelayMode::announce;
  throw std::invalid_argument("unknown relay mode '" + std::string(s) +
                              "' (want push or announce)");
}

void NetSimConfig::validate() const {
  ETHSM_EXPECTS(alpha >= 0.0 && alpha < 0.5,
                "alpha must lie in [0, 0.5): a majority pool trivially wins");
  ETHSM_EXPECTS(honest_nodes >= 1 && honest_nodes <= 512,
                "honest_nodes must lie in [1, 512]");
  ETHSM_EXPECTS(num_blocks > 0, "num_blocks must be positive");
  if (topology.kind == TopologyKind::two_clusters) {
    ETHSM_EXPECTS(honest_nodes >= 2,
                  "two_clusters needs at least 2 honest nodes");
  }
  faults.validate(honest_nodes);
}

NetSimResult run_net_simulation(const NetSimConfig& config) {
  config.validate();
  support::trace::Span span("net.run");
  Engine engine(config);
  NetSimResult result = engine.run();
  if constexpr (support::metrics::kEnabled) {
    // Write-only tap: end-of-run totals mirrored into the process registry
    // (the per-run numbers already live in the deterministic result).
    auto& reg = support::metrics::registry();
    static support::metrics::Counter& runs =
        reg.counter("ethsm_net_runs_total", "Network simulations completed");
    static support::metrics::Counter& events = reg.counter(
        "ethsm_net_events_total", "Discrete events processed by the net sim");
    static support::metrics::Counter& drops =
        reg.counter("ethsm_net_fault_messages_dropped_total",
                    "Messages dropped by the fault layer");
    static support::metrics::Counter& mining_lost =
        reg.counter("ethsm_net_fault_mining_lost_total",
                    "Mining opportunities lost to node downtime");
    static support::metrics::Counter& downtime =
        reg.counter("ethsm_net_fault_downtime_events_total",
                    "Node down/up transitions injected by churn");
    runs.add();
    events.add(result.events_processed);
    drops.add(result.faults_messages_dropped);
    mining_lost.add(result.faults_mining_lost);
    downtime.add(result.faults_downtime_events);
  }
  return result;
}

void NetMultiRunSummary::absorb(const NetSimResult& r) {
  gamma.add(r.measured_gamma());
  pool_revenue_s1.add(
      r.sim.pool_absolute_revenue(sim::Scenario::regular_rate_one));
  pool_revenue_s2.add(
      r.sim.pool_absolute_revenue(sim::Scenario::regular_and_uncle_rate_one));
  honest_revenue_s1.add(
      r.sim.honest_absolute_revenue(sim::Scenario::regular_rate_one));
  honest_revenue_s2.add(
      r.sim.honest_absolute_revenue(sim::Scenario::regular_and_uncle_rate_one));
  pool_share.add(r.sim.pool_relative_share());
  uncle_rate.add(r.sim.uncle_rate());
  const auto& ledger = r.sim.ledger;
  const auto regular = static_cast<double>(ledger.regular_total());
  stale_rate.add(regular == 0.0
                     ? 0.0
                     : static_cast<double>(ledger.fates[0].stale +
                                           ledger.fates[1].stale +
                                           ledger.referenced_uncle_total()) /
                           regular);
  if (distance_blocks.size() < r.distance_blocks.size()) {
    distance_blocks.resize(r.distance_blocks.size(), 0);
    distance_stale.resize(r.distance_stale.size(), 0);
  }
  for (std::size_t d = 0; d < r.distance_blocks.size(); ++d) {
    distance_blocks[d] += r.distance_blocks[d];
    distance_stale[d] += r.distance_stale[d];
  }
  race_samples += r.race_samples;
  natural_forks += r.natural_forks;
  resyncs += r.resyncs;
  events_processed += r.events_processed;
  faults_messages_dropped += r.faults_messages_dropped;
  faults_mining_lost += r.faults_mining_lost;
  faults_downtime_events += r.faults_downtime_events;
  ++runs;
}

std::uint64_t run_net_many_fingerprint(const NetSimConfig& config, int runs) {
  support::Fingerprint fp;
  // v2: the fault spec joined the digest, so checkpoint directories can
  // never mix faulted and clean records (v1 files are ignored wholesale).
  fp.mix("run_net_many/v2");
  fp.mix(config.alpha);
  fp.mix(config.honest_nodes);
  fp.mix(static_cast<int>(config.topology.kind));
  fp.mix(config.topology.param);
  fp.mix(static_cast<int>(config.latency.kind));
  fp.mix(config.latency.a);
  fp.mix(config.latency.b);
  fp.mix(static_cast<int>(config.relay));
  fp.mix(config.faults.drop);
  fp.mix(config.faults.churn.mean_up_ms);
  fp.mix(config.faults.churn.mean_down_ms);
  fp.mix(config.faults.partition.enabled);
  fp.mix(config.faults.partition.start_ms);
  fp.mix(config.faults.partition.heal_ms);
  fp.mix(static_cast<int>(config.faults.partition.cut));
  fp.mix(config.faults.eclipse.victim);
  fp.mix(config.faults.eclipse.delay_ms);
  fp.mix(config.faults.eclipse.drop);
  fp.mix(config.num_blocks);
  fp.mix(config.seed);
  fp.mix(rewards::sweep_fingerprint(config.rewards));
  fp.mix(runs);
  return fp.digest();
}

NetMultiRunSummary run_net_many(const NetSimConfig& config, int runs,
                                const support::SweepCheckpoint& checkpoint,
                                support::SweepOutcome* outcome) {
  return run_net_many(std::vector<NetSimConfig>{config}, runs, checkpoint,
                      outcome)
      .front();
}

std::vector<NetMultiRunSummary> run_net_many(
    const std::vector<NetSimConfig>& configs, int runs,
    const support::SweepCheckpoint& checkpoint,
    support::SweepOutcome* outcome) {
  std::vector<support::SeededSweep> sweeps;
  for (const NetSimConfig& config : configs) {
    config.validate();
    sweeps.push_back(
        {run_net_many_fingerprint(config, runs), config.seed, runs});
  }
  std::vector<NetMultiRunSummary> summaries(configs.size());
  support::run_seeded(
      checkpoint, outcome, sweeps,
      [&configs](std::size_t s, std::uint64_t seed) {
        NetSimConfig run_config = configs[s];
        run_config.seed = seed;
        return run_net_simulation(run_config);
      },
      [&summaries](std::size_t s, const NetSimResult& r) {
        summaries[s].absorb(r);
      });
  return summaries;
}

}  // namespace ethsm::net

namespace ethsm::support {

void CheckpointCodec<net::NetSimResult>::encode(
    ByteWriter& w, const net::NetSimResult& result) {
  CheckpointCodec<sim::SimResult>::encode(w, result.sim);
  w.u64(result.race_samples);
  w.u64(result.race_pool_choices);
  w.u64(result.natural_forks);
  w.u64(result.resyncs);
  w.u64(result.events_processed);
  w.u64(result.faults_messages_dropped);
  w.u64(result.faults_mining_lost);
  w.u64(result.faults_downtime_events);
  w.u64_vec(result.distance_blocks);
  w.u64_vec(result.distance_stale);
}

net::NetSimResult CheckpointCodec<net::NetSimResult>::decode(ByteReader& r) {
  net::NetSimResult result;
  result.sim = CheckpointCodec<sim::SimResult>::decode(r);
  result.race_samples = r.u64();
  result.race_pool_choices = r.u64();
  result.natural_forks = r.u64();
  result.resyncs = r.u64();
  result.events_processed = r.u64();
  result.faults_messages_dropped = r.u64();
  result.faults_mining_lost = r.u64();
  result.faults_downtime_events = r.u64();
  result.distance_blocks = r.u64_vec();
  result.distance_stale = r.u64_vec();
  return result;
}

}  // namespace ethsm::support
