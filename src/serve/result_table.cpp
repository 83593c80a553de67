#include "serve/result_table.h"

#include <condition_variable>
#include <utility>

#include "support/check.h"

namespace ethsm::serve {

/// The table holds job *state*, not threads: followers wait on the job's
/// condition variable under the table's mutex, and the shared_ptr keeps a
/// finished job alive for followers that have not woken yet.
struct ResultTable::Job {
  std::condition_variable cv;
  bool finished = false;
  bool ok = false;
  std::string payload;  ///< result JSON (ok) or error text
};

ResultTable::ResultTable(std::size_t capacity, AdmissionConfig admission)
    : capacity_(capacity == 0 ? 1 : capacity), admission_(admission) {
  ETHSM_EXPECTS(admission_.max_jobs_in_flight > 0,
                "admission needs at least one global computation slot");
  ETHSM_EXPECTS(admission_.per_client_jobs > 0,
                "admission needs at least one per-client computation slot");
  stats_.capacity = capacity_;
}

void ResultTable::remember(std::uint64_t fingerprint, std::string spec_text) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_[fingerprint].spec = std::move(spec_text);
}

std::optional<std::string> ResultTable::spec(std::uint64_t fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(fingerprint);
  if (it == records_.end() || it->second.spec.empty()) return std::nullopt;
  return it->second.spec;
}

ResultTable::Ticket ResultTable::begin(std::uint64_t fingerprint,
                                       const std::string& client) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Record& record = records_[fingerprint];
  if (record.payload) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, record.lru);
    return {Fate::hit, *record.payload, nullptr};
  }
  ++stats_.misses;
  if (record.job) {
    ++stats_.attached;
    return {Fate::follow, {}, record.job};
  }
  const auto mine = client_jobs_.find(client);
  if (stats_.jobs >= admission_.max_jobs_in_flight ||
      (mine != client_jobs_.end() &&
       mine->second >= admission_.per_client_jobs)) {
    ++stats_.rejected;
    return {Fate::rejected, {}, nullptr};
  }
  ++stats_.jobs;
  ++client_jobs_[client];
  record.job = std::make_shared<Job>();
  record.leader = client;
  return {Fate::lead, {}, nullptr};
}

void ResultTable::finish(std::uint64_t fingerprint, bool ok,
                         std::string payload) {
  std::shared_ptr<Job> job;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = records_.find(fingerprint);
    ETHSM_EXPECTS(it != records_.end() && it->second.job,
                  "finish without a leading begin");
    Record& record = it->second;
    job = std::move(record.job);
    --stats_.jobs;
    if (const auto mine = client_jobs_.find(record.leader);
        --mine->second == 0) {
      client_jobs_.erase(mine);
    }
    job->finished = true;
    job->ok = ok;
    job->payload = payload;
    if (ok) {
      record.payload = std::move(payload);
      lru_.push_front(fingerprint);
      record.lru = lru_.begin();
      if (lru_.size() > capacity_) {
        records_[lru_.back()].payload.reset();
        lru_.pop_back();
        ++stats_.evictions;
      }
    }
  }
  job->cv.notify_all();
}

ResultTable::Outcome ResultTable::wait(const Ticket& ticket) {
  std::unique_lock<std::mutex> lock(mutex_);
  ticket.job->cv.wait(lock, [&] { return ticket.job->finished; });
  return {ticket.job->ok, ticket.job->payload};
}

bool ResultTable::contains(std::uint64_t fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(fingerprint);
  return it != records_.end() && it->second.payload;
}

bool ResultTable::running(std::uint64_t fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(fingerprint);
  return it != records_.end() && it->second.job;
}

ResultTable::Stats ResultTable::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  stats.entries = lru_.size();
  return stats;
}

}  // namespace ethsm::serve
