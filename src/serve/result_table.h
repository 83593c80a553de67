// ResultTable: the one place `ethsm serve` decides what happens to a request
// for a spec fingerprint. It keeps one record per fingerprint:
//
//   * the canonical spec text, kept for the daemon's lifetime, so
//     /v1/result and /v1/progress resolve every fingerprint the daemon has
//     seen (the presets are preloaded, every resolved POST /v1/run spec is
//     added);
//   * the rendered result payload, evicted least-recently-used beyond the
//     capacity (a miss falls back to api::run on the daemon's checkpoint
//     directory, which reloads sweep records from disk instead of
//     recomputing -- the store is the second cache tier);
//   * the running computation, if any, with the client whose admission slot
//     it holds.
//
// begin() answers under one lock: a cached payload is a *hit*; a running job
// is joined as a *follower*, which blocks in wait() and receives the
// leader's payload or error; otherwise the caller *leads* a new job if both
// the global and its own admission budget have a free slot, and is
// *rejected* (429 + Retry-After) if not. A rejected request registers no
// job, so no later request can attach to it. The leader must call finish(),
// which stores the payload, frees the slot and wakes the followers. Cache
// hits and dedupe attaches are always served: admission gates only the
// requests that would start a computation, and budgets free up the moment a
// computation finishes, so a client retrying after Retry-After always makes
// progress.

#ifndef ETHSM_SERVE_RESULT_TABLE_H
#define ETHSM_SERVE_RESULT_TABLE_H

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace ethsm::serve {

struct AdmissionConfig {
  /// Computations running at once, process-wide.
  std::size_t max_jobs_in_flight = 8;
  /// Computations one client may have running at once.
  std::size_t per_client_jobs = 4;
};

class ResultTable {
 public:
  /// `capacity` (payloads kept) is clamped to at least 1.
  ResultTable(std::size_t capacity, AdmissionConfig admission);

  /// Records the canonical spec text of `fingerprint`.
  void remember(std::uint64_t fingerprint, std::string spec_text);
  /// The remembered spec text; nullopt for a fingerprint never remembered.
  [[nodiscard]] std::optional<std::string> spec(
      std::uint64_t fingerprint) const;

  enum class Fate { hit, follow, rejected, lead };
  struct Job;
  struct Ticket {
    Fate fate = Fate::lead;
    std::string payload;        ///< hit: the cached payload
    std::shared_ptr<Job> job;   ///< follow: the job to wait() on
  };

  /// The one cache lookup of a request: counts a hit, or a miss for every
  /// other fate. A lead takes one global and one `client` admission slot,
  /// and must be paired with finish(fingerprint, ...).
  [[nodiscard]] Ticket begin(std::uint64_t fingerprint,
                             const std::string& client);

  /// Leader: publishes the outcome to the followers, frees the admission
  /// slot, and (when `ok`) stores `payload` as the most recently used entry.
  /// A failure is not stored: a transient error (disk, OOM) must not poison
  /// the fingerprint until an eviction.
  void finish(std::uint64_t fingerprint, bool ok, std::string payload);

  /// Follower: blocks until the leader finishes. `ok` false means `payload`
  /// is the leader's error text.
  struct Outcome {
    bool ok = false;
    std::string payload;
  };
  [[nodiscard]] Outcome wait(const Ticket& ticket);

  /// True when a payload is stored, with no recency bump and no hit/miss
  /// accounting (progress probes must not skew the cache statistics).
  [[nodiscard]] bool contains(std::uint64_t fingerprint) const;
  /// True while a computation for this fingerprint runs.
  [[nodiscard]] bool running(std::uint64_t fingerprint) const;

  /// One consistent snapshot of the table's counts, the single source of
  /// /v1/status and the ethsm_serve_{cache,dedupe,admission,inflight}_*
  /// metrics.
  struct Stats {
    std::size_t entries = 0;   ///< payloads stored
    std::size_t capacity = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t attached = 0;  ///< followers (the dedupe win counter)
    std::uint64_t rejected = 0;  ///< admission rejections (429s)
    std::size_t jobs = 0;        ///< computations running = slots held
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Record {
    std::string spec;
    std::optional<std::string> payload;
    std::list<std::uint64_t>::iterator lru;  ///< valid while payload is set
    std::shared_ptr<Job> job;
    std::string leader;  ///< the client whose slot `job` holds
  };

  const std::size_t capacity_;
  const AdmissionConfig admission_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Record> records_;
  std::list<std::uint64_t> lru_;  ///< stored payloads, front = most recent
  std::map<std::string, std::size_t> client_jobs_;
  Stats stats_;
};

}  // namespace ethsm::serve

#endif  // ETHSM_SERVE_RESULT_TABLE_H
