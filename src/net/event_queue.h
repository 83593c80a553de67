// Deterministic discrete-event queue for the P2P network simulator.
//
// Events pop in (time, seq) order: `seq` is a monotonically increasing push
// counter, so two events scheduled for the same instant pop in the order they
// were scheduled. That stability is what makes a network run a pure function
// of its seed -- the relay of an honest block and the attacker's matching
// publication may leave a hub at the same timestamp, and the winner of the
// resulting first-seen race must not depend on queue internals or platform
// tie-breaking.
//
// Two lanes share the one seq counter:
//
//   * the FIFO lane (a vector plus a head index) takes every push() whose
//     time is >= the time of the FIFO's last entry. With fixed link latency a
//     message sent later also arrives later, so gossip lands here and costs
//     O(1) per push and pop;
//   * the heap lane (a binary min-heap) takes out-of-order pushes -- random
//     latency draws, eclipse delays -- and every push_timer(). Timers are the
//     engine's self-scheduled events (the next mine, churn crash/restart):
//     they sit one block interval or more in the future, and parked at the
//     FIFO tail they would push every later message into the heap.
//
// Each lane is sorted by (time, seq) -- the FIFO because its times never
// decrease and seqs only grow, the heap by construction -- and pop() takes
// the lesser of the two heads. Since (time, seq) keys are unique, the pop
// order is exactly that of a single heap holding every event, for any push
// sequence; only the cost differs.
//
// The payload type is a template parameter; the queue owns nothing beyond the
// event records themselves and reuses its backing vectors across reset()s, so
// the simulation hot loop performs no steady-state allocation. The FIFO drops
// its consumed prefix once that is at least half the vector, so its storage
// stays bounded by the events in flight.

#ifndef ETHSM_NET_EVENT_QUEUE_H
#define ETHSM_NET_EVENT_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/check.h"

namespace ethsm::net {

/// (time, seq, payload) queue with stable same-time ordering.
template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    double time = 0.0;
    std::uint64_t seq = 0;
    Payload payload{};

    /// Pop order: earliest time first; among equal times, lowest seq
    /// (i.e. scheduled-first) wins.
    [[nodiscard]] bool before(const Entry& other) const noexcept {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  /// Schedules `payload` at absolute time `time`; returns the assigned seq.
  /// In-order pushes go to the FIFO lane, the rest to the heap.
  std::uint64_t push(double time, const Payload& payload) {
    const Entry entry{time, next_seq_++, payload};
    if (fifo_head_ == fifo_.size()) {
      fifo_.clear();
      fifo_head_ = 0;
    }
    if (fifo_.empty() || time >= fifo_.back().time) {
      fifo_.push_back(entry);
    } else {
      push_heap(entry);
    }
    return entry.seq;
  }

  /// Schedules a self-scheduled event (timer) in the heap lane, keeping it
  /// off the FIFO tail; returns the assigned seq.
  std::uint64_t push_timer(double time, const Payload& payload) {
    const Entry entry{time, next_seq_++, payload};
    push_heap(entry);
    return entry.seq;
  }

  /// Removes and returns the earliest event. Empty queue is a logic error.
  Entry pop() {
    ETHSM_EXPECTS(!empty(), "pop on an empty event queue");
    if (!fifo_first()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Entry entry = heap_.back();
      heap_.pop_back();
      return entry;
    }
    Entry entry = fifo_[fifo_head_++];
    if (fifo_head_ >= kCompactAfter && 2 * fifo_head_ >= fifo_.size()) {
      fifo_.erase(fifo_.begin(),
                  fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
      fifo_head_ = 0;
    }
    return entry;
  }

  [[nodiscard]] const Entry& top() const {
    ETHSM_EXPECTS(!empty(), "top on an empty event queue");
    return fifo_first() ? fifo_[fifo_head_] : heap_.front();
  }

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return fifo_.size() - fifo_head_ + heap_.size();
  }
  /// Total events ever pushed (the seq counter); survives reset().
  [[nodiscard]] std::uint64_t pushed() const noexcept { return next_seq_; }

  /// Clears both lanes, keeping capacity and restarting the seq counter.
  void reset() {
    fifo_.clear();
    fifo_head_ = 0;
    heap_.clear();
    next_seq_ = 0;
  }

 private:
  /// Consumed FIFO entries tolerated before compaction is considered.
  static constexpr std::size_t kCompactAfter = 1024;

  /// std::*_heap comparators build a max-heap, so "later than" puts the
  /// earliest (time, seq) at the front.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return b.before(a);
    }
  };

  void push_heap(const Entry& entry) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Whether the next event comes from the FIFO lane.
  [[nodiscard]] bool fifo_first() const noexcept {
    if (fifo_head_ == fifo_.size()) return false;
    return heap_.empty() || fifo_[fifo_head_].before(heap_.front());
  }

  std::vector<Entry> fifo_;
  std::size_t fifo_head_ = 0;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ethsm::net

#endif  // ETHSM_NET_EVENT_QUEUE_H
