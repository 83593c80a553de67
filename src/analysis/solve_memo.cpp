#include "analysis/solve_memo.h"

#include <bit>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "markov/stationary.h"
#include "support/checkpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace ethsm::analysis {

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

std::size_t SolveMemo::KeyHash::operator()(const Key& key) const noexcept {
  support::Fingerprint fp;
  fp.mix(key.max_lead);
  for (std::uint64_t x : key.path) fp.mix(x);
  return static_cast<std::size_t>(fp.digest());
}

SolveMemo::SolveMemo(std::size_t budget_bytes) : budget_(budget_bytes) {}

SolveMemo& SolveMemo::process() {
  // Never destroyed: the metrics registry keeps pointers into it.
  static SolveMemo& memo = []() -> SolveMemo& {
    auto* m = new SolveMemo(kBudgetBytes);
    if constexpr (support::metrics::kEnabled) {
      // Write-only observability taps (see support/metrics.h).
      auto& reg = support::metrics::registry();
      reg.register_counter("ethsm_solver_memo_hits_total", &m->hits_,
                           "Stationary solves answered by the solve memo");
      reg.register_counter(
          "ethsm_solver_memo_waits_total", &m->waits_,
          "Solve requests that waited for the same solve in flight");
      reg.register_gauge_fn(
          "ethsm_solver_memo_bytes",
          [m] {
            std::lock_guard lock(m->mutex_);
            return static_cast<std::int64_t>(m->bytes_);
          },
          "Bytes held by the solve memo's entries");
    }
    return *m;
  }();
  return memo;
}

template <class Solve>
std::shared_ptr<const SolveMemo::Entry> SolveMemo::find_or_solve(
    const Key& key, bool need_pi, Solve&& solve) {
  std::unique_lock lock(mutex_);
  std::optional<support::trace::Span> wait_span;
  Slot* slot = nullptr;
  for (;;) {
    slot = &slots_[key];
    if (slot->entry && (slot->entry->pi || !need_pi)) {
      lru_.splice(lru_.begin(), lru_, slot->lru);
      hits_.add();
      return slot->entry;
    }
    if (!slot->solving) break;
    if (!wait_span) {
      wait_span.emplace("markov.memo_wait");
      waits_.add();
    }
    // The solving slot is never erased or evicted while in flight, but a
    // failed solve erases it: look it up afresh after every wake-up.
    landed_.wait(lock);
  }
  wait_span.reset();

  // Solve outside the lock. Pointers to unordered_map elements survive
  // rehashing, and eviction skips a solving slot.
  slot->solving = true;
  lock.unlock();
  std::shared_ptr<const Entry> entry;
  try {
    entry = std::make_shared<const Entry>(solve());
  } catch (...) {
    lock.lock();
    slot->solving = false;
    if (!slot->entry) slots_.erase(key);
    landed_.notify_all();
    throw;
  }
  lock.lock();

  // Entry bytes: key and weights, pi when kept, plus a fixed allowance for
  // the map node, the LRU node and the shared_ptr control blocks.
  std::size_t size = 256 + sizeof(double) * key.path.size() +
                     sizeof(double) * (entry->weights.kind.size() +
                                       entry->weights.first_fork_by_distance.size() +
                                       entry->weights.reroot_by_distance.size());
  if (entry->pi) size += sizeof(double) * entry->pi->size();

  if (slot->entry) {  // a weights-only entry upgraded to carry pi
    bytes_ -= slot->bytes;
    lru_.erase(slot->lru);
  }
  slot->entry = entry;
  slot->bytes = size;
  slot->solving = false;
  const auto node = slots_.find(key);
  slot->lru = lru_.insert(lru_.begin(), &node->first);
  bytes_ += size;
  solves_.add();
  evict_down_to(budget_);
  landed_.notify_all();
  return entry;
}

void SolveMemo::evict_down_to(std::size_t limit) {
  auto it = lru_.end();
  while (bytes_ > limit && it != lru_.begin()) {
    --it;
    const auto node = slots_.find(**it);
    if (node->second.solving) continue;  // an upgrade in flight keeps its slot
    bytes_ -= node->second.bytes;
    evictions_.add();
    it = lru_.erase(it);
    slots_.erase(node);
  }
}

void SolveMemo::clear() {
  std::lock_guard lock(mutex_);
  evict_down_to(0);
}

RevenueBreakdown SolveMemo::revenue(const markov::MiningParams& params,
                                    const rewards::RewardConfig& config,
                                    int max_lead, RevenueCache* cache) {
  Key key;
  key.max_lead = max_lead;
  if (cache != nullptr) {
    if (cache->max_lead != max_lead) {
      cache->max_lead = max_lead;
      cache->space.reset();
      cache->path.clear();
      cache->last_pi.reset();
    }
    key.path = cache->path;
  }
  key.path.push_back(bits(params.alpha));
  key.path.push_back(bits(params.gamma));

  const auto entry = find_or_solve(key, cache != nullptr, [&] {
    support::trace::Span span("markov.solve");
    std::unique_ptr<markov::StateSpace> local;
    if (cache == nullptr) {
      local = std::make_unique<markov::StateSpace>(max_lead);
    } else if (!cache->space) {
      cache->space = std::make_unique<markov::StateSpace>(max_lead);
    }
    const markov::TransitionModel model(cache ? *cache->space : *local, params);
    markov::StationaryOptions options;
    if (cache != nullptr) options.initial = cache->last_pi.get();
    const markov::StationaryDistribution pi =
        markov::solve_stationary(model, options);
    Entry solved{kernel_weights(pi, model), nullptr};
    if (cache != nullptr) {
      solved.pi = std::make_shared<const std::vector<double>>(pi.values());
    }
    return solved;
  });

  if (cache != nullptr) {
    cache->path = std::move(key.path);
    cache->last_pi = entry->pi;
  }
  return price(entry->weights, params, config);
}

SolveMemo::Stats SolveMemo::stats() const {
  std::lock_guard lock(mutex_);
  return {bytes_,        lru_.size(),    solves_.value(),
          hits_.value(), waits_.value(), evictions_.value()};
}

std::vector<double> cold_solve_costs(const std::vector<ColdSolve>& solves) {
  std::set<std::tuple<std::uint64_t, std::uint64_t, int>> seen;
  std::vector<double> costs;
  for (const auto& [params, max_lead] : solves) {
    const bool first =
        seen.emplace(bits(params.alpha), bits(params.gamma), max_lead).second;
    costs.push_back(first ? params.alpha : -1.0);
  }
  return costs;
}

}  // namespace ethsm::analysis
