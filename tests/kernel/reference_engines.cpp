#include "reference_engines.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "chain/reward_ledger.h"
#include "miner/selfish_policy.h"
#include "net/event_queue.h"
#include "support/check.h"
#include "support/rng.h"
#include "support/stats.h"

namespace ethsm::testing {

analysis::RevenueBreakdown reference_compute_revenue(
    const markov::StationaryDistribution& pi,
    const markov::TransitionModel& model, const rewards::RewardConfig& config) {
  using analysis::RewardFlow;
  support::KahanSum pool_static, pool_uncle, pool_nephew;
  support::KahanSum honest_static, honest_uncle, honest_nephew;
  support::KahanSum regular_rate, uncle_rate;

  // CSR row walk: the stationary mass and source state are hoisted per row,
  // and zero-mass rows (deep truncation tail) skip their reward-case
  // evaluations entirely.
  const int n = model.space().size();
  const auto& row = model.row_offsets();
  const auto& rate = model.rates();
  const auto& kind = model.kinds();
  for (int s = 0; s < n; ++s) {
    const double mass = pi[s];
    if (mass == 0.0) continue;
    const markov::State& st = model.space().state_at(s);
    for (std::uint32_t k = row[static_cast<std::size_t>(s)];
         k < row[static_cast<std::size_t>(s) + 1]; ++k) {
      const double weight = mass * rate[k];
      if (weight == 0.0) continue;
      const RewardFlow flow =
          analysis::expected_rewards(st, kind[k], model.params(), config);
      pool_static.add(weight * flow.pool_static);
      pool_uncle.add(weight * flow.pool_uncle);
      pool_nephew.add(weight * flow.pool_nephew);
      honest_static.add(weight * flow.honest_static);
      honest_uncle.add(weight * flow.honest_uncle);
      honest_nephew.add(weight * flow.honest_nephew);
      regular_rate.add(weight * flow.regular_probability);
      uncle_rate.add(weight * flow.referenced_uncle_probability);
    }
  }

  analysis::RevenueBreakdown out;
  out.pool_static = pool_static.value();
  out.pool_uncle = pool_uncle.value();
  out.pool_nephew = pool_nephew.value();
  out.honest_static = honest_static.value();
  out.honest_uncle = honest_uncle.value();
  out.honest_nephew = honest_nephew.value();
  out.regular_rate = regular_rate.value();
  out.referenced_uncle_rate = uncle_rate.value();
  return out;
}

std::vector<double> reference_solve_stationary_power(
    const markov::TransitionModel& model, double tolerance,
    int max_iterations) {
  const auto n = static_cast<std::size_t>(model.space().size());
  std::vector<double> pi(n, 0.0), next(n, 0.0);
  pi[0] = 1.0;
  // The seed solver's array-of-structs edge list, rebuilt from the CSR rows
  // in the same entry order.
  struct Edge {
    std::size_t from, to;
    double rate;
  };
  std::vector<Edge> edges;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::uint32_t e = model.row_offsets()[s];
         e < model.row_offsets()[s + 1]; ++e) {
      edges.push_back({s, static_cast<std::size_t>(model.columns()[e]),
                       model.rates()[e]});
    }
  }
  double diff = 1.0;
  for (int iter = 0; iter < max_iterations && diff > tolerance; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (const Edge& t : edges) next[t.to] += pi[t.from] * t.rate;
    diff = 0.0;
    for (std::size_t s = 0; s < n; ++s) diff += std::fabs(next[s] - pi[s]);
    pi.swap(next);
  }
  double mass = 0.0;
  for (double p : pi) mass += p;
  for (double& p : pi) p /= mass;
  return pi;
}

namespace {

// The Gauss-Seidel solve as it stood before the register-carried sweep:
// starting vector, power-iteration fallback, plain CSC sweep and the
// doubling-schedule convergence loop, copied verbatim (modulo namespace) from
// src/markov/stationary.cpp. Metrics taps are left out; they do not touch
// the vector.

std::vector<double> frozen_initial_vector(
    std::size_t n, const markov::StationaryOptions& options,
    markov::SolveMethod method) {
  std::vector<double> pi;
  if (options.initial != nullptr && options.initial->size() == n) {
    pi = *options.initial;
    double mass = 0.0;
    for (double p : pi) mass += p;
    if (mass > 0.0) {
      for (double& p : pi) p /= mass;
      return pi;
    }
  }
  if (method == markov::SolveMethod::gauss_seidel) {
    pi.assign(n, 1.0 / static_cast<double>(n));
  } else {
    pi.assign(n, 0.0);
    pi[0] = 1.0;
  }
  return pi;
}

double frozen_power_iterate(const markov::TransitionModel& model,
                            std::vector<double>& pi, double tolerance,
                            int max_iterations, int& iter) {
  const auto n = pi.size();
  const auto& row = model.row_offsets();
  const auto& col = model.columns();
  const auto& rate = model.rates();
  std::vector<double> next(n, 0.0);
  double diff = 1.0;
  for (; iter < max_iterations && diff > tolerance; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      const double ps = pi[s];
      if (ps == 0.0) continue;
      for (std::uint32_t k = row[s]; k < row[s + 1]; ++k) {
        next[static_cast<std::size_t>(col[k])] += ps * rate[k];
      }
    }
    diff = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      diff += std::fabs(next[s] - pi[s]);
    }
    pi.swap(next);
  }
  return diff;
}

void frozen_gauss_seidel_sweep(const markov::TransitionModel::Incoming& in,
                               std::vector<double>& pi) {
  const std::size_t n = pi.size();
  const auto* offsets = in.col_offsets.data();
  const auto* source = in.source.data();
  const auto* rate = in.rate.data();
  const auto* inv_diag = in.inv_diag.data();
  for (std::size_t c = 0; c < n; ++c) {
    double inflow = 0.0;
    for (std::uint32_t e = offsets[c]; e < offsets[c + 1]; ++e) {
      inflow += pi[static_cast<std::size_t>(source[e])] * rate[e];
    }
    pi[c] = inflow * inv_diag[c];
  }
}

double frozen_gauss_seidel_iterate(const markov::TransitionModel& model,
                                   std::vector<double>& pi, double tolerance,
                                   int sweep_limit, int& iter, bool& stalled) {
  const auto& in = model.incoming();
  const std::size_t n = pi.size();
  std::vector<double> previous = pi;

  stalled = false;
  double diff = 1.0;
  int interval = 1;
  while (iter < sweep_limit && diff > tolerance) {
    const int block = std::min(interval, sweep_limit - iter);
    for (int b = 0; b < block; ++b) frozen_gauss_seidel_sweep(in, pi);
    iter += block;
    interval = std::min(interval * 2, 8);

    double mass = 0.0;
    for (double p : pi) mass += p;
    if (!std::isfinite(mass) || mass <= 0.0) {
      pi = previous;
      stalled = true;
      return diff;
    }
    const double inv_mass = 1.0 / mass;
    double change = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      pi[s] *= inv_mass;
      change += std::fabs(pi[s] - previous[s]);
    }
    diff = change;
    previous = pi;
  }
  stalled = diff > tolerance;
  return diff;
}

}  // namespace

markov::StationaryDistribution reference_solve_stationary_gauss_seidel(
    const markov::TransitionModel& model,
    const markov::StationaryOptions& options) {
  using markov::SolveMethod;
  ETHSM_EXPECTS(options.method != SolveMethod::power,
                "the frozen solve covers the Gauss-Seidel paths only");
  const auto n = static_cast<std::size_t>(model.space().size());
  const auto& inv_diag = model.incoming().inv_diag;
  const bool degenerate_diagonal =
      std::find(inv_diag.begin(), inv_diag.end(), 0.0) != inv_diag.end();

  SolveMethod method = options.method;
  if (method == SolveMethod::automatic) {
    method = degenerate_diagonal ? SolveMethod::power : SolveMethod::gauss_seidel;
  }
  std::vector<double> pi = frozen_initial_vector(n, options, method);

  int iter = 0;
  double diff = 1.0;
  SolveMethod produced = method;
  if (method == SolveMethod::gauss_seidel) {
    const int sweep_limit = options.method == SolveMethod::automatic
                                ? options.max_iterations / 2
                                : options.max_iterations;
    bool stalled = false;
    diff = frozen_gauss_seidel_iterate(model, pi, options.tolerance,
                                       sweep_limit, iter, stalled);
    if (stalled && options.method == SolveMethod::automatic) {
      diff = frozen_power_iterate(model, pi, options.tolerance,
                                  options.max_iterations, iter);
      produced = SolveMethod::power;
    }
  } else {
    diff = frozen_power_iterate(model, pi, options.tolerance,
                                options.max_iterations, iter);
  }

  support::KahanSum total;
  for (double p : pi) total.add(p);
  ETHSM_ENSURES(total.value() > 0.0, "stationary mass vanished");
  for (double& p : pi) p /= total.value();

  return markov::StationaryDistribution(model.space(), std::move(pi), iter,
                                        diff, produced);
}

using chain::BlockId;
using chain::kNoBlock;

std::vector<chain::UncleCandidate> reference_find_uncle_candidates(
    const chain::BlockTree& tree, chain::BlockId parent, int horizon,
    std::span<const std::uint8_t> visible) {
  using chain::BlockId;
  ETHSM_EXPECTS(horizon >= 0, "horizon must be non-negative");
  std::vector<chain::UncleCandidate> out;
  if (horizon == 0) return out;

  // The horizon + 1 nearest ancestors (parent and up): an uncle at distance
  // `horizon` is a child of the deepest one.
  const auto for_each_window_ancestor = [&](auto&& fn) {
    BlockId cur = parent;
    for (int steps = 0; steps <= horizon; ++steps) {
      fn(cur);
      if (cur == tree.genesis()) break;
      cur = tree.parent(cur);
    }
  };
  const std::uint32_t new_height = tree.height(parent) + 1;

  std::vector<BlockId> already_referenced;
  for_each_window_ancestor([&](BlockId anc) {
    const auto refs = tree.uncle_refs(anc);
    already_referenced.insert(already_referenced.end(), refs.begin(),
                              refs.end());
  });

  BlockId on_chain_child = chain::kNoBlock;
  for_each_window_ancestor([&](BlockId anc) {
    for (BlockId child : tree.children(anc)) {
      if (child == on_chain_child || child == parent) continue;
      if (!tree.is_published(child)) continue;
      if (!visible.empty() &&
          (child >= visible.size() || visible[child] == 0)) {
        continue;
      }
      if (std::find(already_referenced.begin(), already_referenced.end(),
                    child) != already_referenced.end()) {
        continue;
      }
      const int distance = static_cast<int>(new_height - tree.height(child));
      if (distance < 1 || distance > horizon) continue;
      out.push_back(chain::UncleCandidate{child, distance});
    }
    on_chain_child = anc;
  });

  std::sort(out.begin(), out.end(), [&tree](const auto& a, const auto& b) {
    if (tree.height(a.id) != tree.height(b.id)) {
      return tree.height(a.id) < tree.height(b.id);
    }
    return a.id < b.id;
  });
  return out;
}

ReferenceAlgorithm1::ReferenceAlgorithm1(
    chain::BlockTree& tree, const rewards::RewardConfig& rewards,
    std::span<const std::uint8_t> visibility)
    : tree_(tree),
      visibility_(visibility),
      horizon_(rewards.reference_horizon()),
      max_refs_(rewards.max_uncles_per_block),
      base_(tree.genesis()) {}

BlockId ReferenceAlgorithm1::published_pool_tip() const noexcept {
  return published_ == 0 ? kNoBlock
                         : private_[static_cast<std::size_t>(published_ - 1)];
}

int ReferenceAlgorithm1::public_length() const noexcept {
  // Both public branches always have equal length; the published prefix
  // count equals the honest fork length, except in (i, 0) states where both
  // are zero.
  return honest_len_ > published_ ? honest_len_ : published_;
}

std::span<const BlockId> ReferenceAlgorithm1::make_references(BlockId parent) {
  if (horizon_ == 0) return {};
  chain::collect_uncle_references(tree_, parent, horizon_, max_refs_,
                                  uncle_scratch_, visibility_);
  return uncle_scratch_.refs;
}

void ReferenceAlgorithm1::publish_up_to(int count, double now) {
  ETHSM_ASSERT(count <= static_cast<int>(private_.size()));
  for (int i = published_; i < count; ++i) {
    tree_.publish(private_[static_cast<std::size_t>(i)], now);
  }
  if (count > published_) published_ = count;
}

void ReferenceAlgorithm1::reset_to(BlockId new_base) {
  base_ = new_base;
  private_.clear();
  published_ = 0;
  honest_tip_ = kNoBlock;
  honest_len_ = 0;
}

BlockId ReferenceAlgorithm1::on_pool_block(double now) {
  // Lines 1-2: reference uncles from the private branch, extend it.
  const BlockId parent = private_tip();
  const BlockId id = tree_.append(parent, chain::MinerClass::selfish, 0, now,
                                  make_references(parent));
  private_.push_back(id);

  // Lines 3-5: at (Ls, Lh) = (2, 1) the advantage is too small to keep
  // racing -- publish everything; the 2-block branch beats the 1-block fork.
  if (private_length() == 2 && public_length() == 1) {
    publish_up_to(2, now);
    reset_to(private_.back());
  }
  // Line 7: otherwise keep mining privately; nothing is published.
  return id;
}

void ReferenceAlgorithm1::on_honest_block(BlockId b, double now) {
  const BlockId parent = tree_.parent(b);
  ETHSM_EXPECTS(tree_.is_published(b), "honest blocks must arrive published");

  // Which public branch did the honest block extend, and is that branch a
  // prefix of the private branch?
  bool on_prefix;
  if (honest_len_ == 0 && published_ == 0) {
    ETHSM_EXPECTS(parent == base_, "honest block off the public tip");
    on_prefix = true;
  } else if (parent == honest_tip_) {
    on_prefix = false;
  } else if (parent == published_pool_tip()) {
    on_prefix = true;
  } else {
    ETHSM_EXPECTS(false, "honest block extends neither public branch");
    return;  // unreachable
  }

  // Line 9: the extended public branch now has this length.
  const int new_public_len = (on_prefix ? published_ : honest_len_) + 1;
  const int ls = private_length();

  if (ls < new_public_len) {
    // Lines 10-12: the public branch won; adopt it.
    ETHSM_ASSERT(published_ == ls);
    reset_to(b);
  } else if (ls == new_public_len) {
    // Lines 13-14: tie race -- publish the last (only) private block. Only
    // reachable from (1, 0).
    ETHSM_ASSERT(ls == 1 && published_ == 0 && on_prefix);
    publish_up_to(1, now);
    honest_tip_ = b;
    honest_len_ = 1;
  } else if (ls == new_public_len + 1) {
    // Lines 15-17: advantage down to one block -- publish the private branch.
    publish_up_to(ls, now);
    reset_to(private_.back());
  } else {
    // Lines 18-20: comfortable lead (Ls >= Lh + 2): release one more block.
    if (on_prefix) {
      if (published_ > 0) {
        // Line 20: re-root at the published prefix tip.
        base_ = private_[static_cast<std::size_t>(published_ - 1)];
        private_.erase(private_.begin(), private_.begin() + published_);
        published_ = 0;
      }
      honest_tip_ = b;
      honest_len_ = 1;
    } else {
      honest_tip_ = b;
      ++honest_len_;
    }
    publish_up_to(honest_len_, now);
  }
}

BlockId ReferenceAlgorithm1::finalize(double now) {
  publish_up_to(private_length(), now);
  return private_length() > honest_len_ ? private_tip()
         : honest_len_ > 0             ? honest_tip_
                                       : base_;
}

miner::PublicView ReferenceAlgorithm1::public_view() const {
  miner::PublicView view;
  if (published_ > 0) {
    ETHSM_ASSERT(honest_len_ == published_);
    view.tie = true;
    view.pool_branch_tip = published_pool_tip();
    view.honest_branch_tip = honest_tip_;
  } else {
    ETHSM_ASSERT(honest_len_ == 0);
    view.consensus_tip = base_;
  }
  return view;
}

// ---------------------------------------------------------------------------
// The network engine as it was before send-time settlement: every gossip
// message is built and either dispatched inline (zero delay) or queued, and
// its fate -- lost at a down node, ignored as a duplicate -- is decided only
// when it arrives. Frozen verbatim (modulo namespace and class name) from
// src/net/net_sim.cpp; the multi-run driver and the metrics taps are left
// out.

namespace {

using chain::BlockId;
using chain::kNoBlock;
using net::EventQueue;
using net::FaultModel;
using net::kBlockIntervalMs;
using net::LatencySpec;
using net::Link;
using net::NetSimConfig;
using net::NetSimResult;
using net::RelayMode;
using net::Topology;

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

/// One run of the network simulation. Single-threaded; the multi-run driver
/// fans whole runs out across the pool.
class ReferenceNetEngine {
 public:
  explicit ReferenceNetEngine(const NetSimConfig& config)
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
      // The checks keep their order -- partition, link loss, eclipse -- so
      // the draws they make do too.
      if (faults_.severed(src, dst, now) || faults_.drops_message(src)) {
        ++result_.faults_messages_dropped;
        return;
      }
      if (faults_.eclipse_live()) {
        const bool honest_block =
            b != kNoBlock && tree_.block(b).miner == chain::MinerClass::honest;
        if (faults_.eclipse_cuts(dst, honest_block)) {
          ++result_.faults_messages_dropped;
          return;
        }
        extra_delay = faults_.eclipse_extra_delay(dst, honest_block);
      }
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

net::NetSimResult reference_run_net_simulation(
    const net::NetSimConfig& config) {
  config.validate();
  ReferenceNetEngine engine(config);
  return engine.run();
}

}  // namespace ethsm::testing
