// Process-wide memo of stationary solves behind analysis::compute_revenue.
//
// The stationary distribution depends on the truncation and (alpha, gamma)
// only; the reward schedule and the difficulty scenario enter through the
// reward flows (Sec. IV-E). Revenue curves that differ only in schedule, the
// two scenarios' threshold bisections (which share their warm-started
// prefix) and reward_design's per-schedule searches therefore keep solving
// the same chains. The memo solves each one once.
//
// Rules:
//   * The key holds every input bit of a solve: the truncation and the bit
//     pattern of each (alpha, gamma) on the chain's path from its cold solve
//     to this one (a warm-started solve starts from its predecessor's
//     vector). The solver options are always the defaults. 0.0 and -0.0 are
//     different keys.
//   * A hit returns what the solve would have produced, bit for bit, so a
//     hit never shows in any output -- only in the solver counters.
//   * A request for a key that another thread is still solving waits for
//     that solve. A solve that throws leaves no entry behind.
//   * An entry holds the kernel weights (about 12 + 2(max_lead + 1)
//     doubles). Only entries requested through a RevenueCache also keep pi,
//     which the chain's next solve starts from.
//   * Entries are evicted least-recently-used past a fixed byte budget.

#ifndef ETHSM_ANALYSIS_SOLVE_MEMO_H
#define ETHSM_ANALYSIS_SOLVE_MEMO_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "analysis/revenue.h"
#include "support/metrics.h"

namespace ethsm::analysis {

class SolveMemo {
 public:
  /// The process-wide memo's byte budget.
  static constexpr std::size_t kBudgetBytes = std::size_t{4} << 20;

  explicit SolveMemo(std::size_t budget_bytes = kBudgetBytes);
  SolveMemo(const SolveMemo&) = delete;
  SolveMemo& operator=(const SolveMemo&) = delete;

  /// The memo compute_revenue(params, config, max_lead, cache) uses. Only
  /// this instance's counters and size are registered as the
  /// ethsm_solver_memo_* metrics.
  static SolveMemo& process();

  /// compute_revenue(params, config, max_lead, cache) through this memo.
  [[nodiscard]] RevenueBreakdown revenue(const markov::MiningParams& params,
                                         const rewards::RewardConfig& config,
                                         int max_lead, RevenueCache* cache);

  /// Evicts every entry not being solved, so each key's next request solves
  /// again. For tests that must see solves, not hits, in a shared process.
  void clear();

  struct Stats {
    std::size_t bytes = 0;      ///< held by the entries, key and pi included
    std::size_t entries = 0;
    std::uint64_t solves = 0;   ///< solves performed
    std::uint64_t hits = 0;     ///< requests answered without a solve
    std::uint64_t waits = 0;    ///< requests that waited for a solve in flight
    std::uint64_t evictions = 0;
  };
  /// Bookkeeping, exact at call time.
  [[nodiscard]] Stats stats() const;

 private:
  struct Key {
    int max_lead = 0;
    std::vector<std::uint64_t> path;  ///< (alpha, gamma) bit patterns

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };
  struct Entry {
    KernelWeights weights;
    std::shared_ptr<const std::vector<double>> pi;  ///< chain entries only
  };
  struct Slot {
    std::shared_ptr<const Entry> entry;  ///< null until the first solve lands
    bool solving = false;
    std::size_t bytes = 0;
    std::list<const Key*>::iterator lru;  ///< valid while `entry` is set
  };

  /// The entry for `key`, solved by `solve` unless present (with pi when
  /// `need_pi`) or in flight on another thread.
  template <class Solve>
  std::shared_ptr<const Entry> find_or_solve(const Key& key, bool need_pi,
                                             Solve&& solve);
  /// Evicts least-recently-used entries until at most `limit` bytes are
  /// held; a slot being solved stays. Caller holds mutex_.
  void evict_down_to(std::size_t limit);

  const std::size_t budget_;

  mutable std::mutex mutex_;
  std::condition_variable landed_;
  std::unordered_map<Key, Slot, KeyHash> slots_;
  std::list<const Key*> lru_;  ///< most recently used first
  std::size_t bytes_ = 0;      ///< guarded by mutex_
  /// The single source of the counts stats() reports; process() registers
  /// hits_ and waits_ by pointer, so there is no shadow copy.
  support::metrics::Counter solves_;
  support::metrics::Counter hits_;
  support::metrics::Counter waits_;
  support::metrics::Counter evictions_;
};

/// A cold solve: compute_revenue(params, config, max_lead), no RevenueCache.
struct ColdSolve { markov::MiningParams params; int max_lead = 0; };

/// Dispatch costs (support::parallel_for) of a list of cold solves: alpha,
/// since a solve costs more as alpha nears 1/2, or -1 for a solve that
/// repeats an earlier entry, so that it finds that solve in the memo instead
/// of waiting for it in flight.
[[nodiscard]] std::vector<double> cold_solve_costs(
    const std::vector<ColdSolve>& solves);

}  // namespace ethsm::analysis

#endif  // ETHSM_ANALYSIS_SOLVE_MEMO_H
