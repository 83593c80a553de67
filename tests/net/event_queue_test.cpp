// The event queue's determinism contract: strict (time, seq) ordering with
// stable FIFO behaviour at equal timestamps -- the property the network
// simulator's first-seen races rest on -- and a differential test pinning the
// two-lane queue (FIFO + heap) to a frozen copy of the single binary heap it
// replaced, over seeded random push/push_timer/pop/reset sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "net/event_queue.h"
#include "support/rng.h"

namespace ethsm::net {
namespace {

TEST(NetEventQueue, PopsInTimeOrder) {
  EventQueue<int> q;
  q.push(3.0, 30);
  q.push(1.0, 10);
  q.push(2.0, 20);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().payload, 10);
  EXPECT_EQ(q.pop().payload, 20);
  EXPECT_EQ(q.pop().payload, 30);
  EXPECT_TRUE(q.empty());
}

TEST(NetEventQueue, EqualTimesPopInScheduleOrder) {
  EventQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(5.0, i);
  q.push(1.0, -1);
  EXPECT_EQ(q.pop().payload, -1);
  for (int i = 0; i < 100; ++i) {
    const auto entry = q.pop();
    EXPECT_EQ(entry.payload, i);
    EXPECT_EQ(entry.seq, static_cast<std::uint64_t>(i));
  }
}

TEST(NetEventQueue, InterleavedEqualAndDistinctTimesStaySorted) {
  EventQueue<int> q;
  q.push(2.0, 0);
  q.push(1.0, 1);
  q.push(2.0, 2);
  q.push(1.0, 3);
  q.push(0.5, 4);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop().payload);
  EXPECT_EQ(order, (std::vector<int>{4, 1, 3, 0, 2}));
}

TEST(NetEventQueue, TimersInterleaveWithInOrderPushes) {
  // A far-future timer must not hold up (or be overtaken by) the in-order
  // traffic scheduled after it, and equal-time ties still go by seq.
  EventQueue<int> q;
  q.push_timer(100.0, 0);
  q.push(1.0, 1);
  q.push(2.0, 2);
  q.push_timer(2.0, 3);
  q.push(100.0, 4);
  q.push(150.0, 5);
  std::vector<int> order;
  while (!q.empty()) {
    const int next = q.top().payload;
    order.push_back(q.pop().payload);
    EXPECT_EQ(order.back(), next);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0, 4, 5}));
}

TEST(NetEventQueue, ResetKeepsCountingPushedEventsFromZero) {
  EventQueue<int> q;
  q.push(1.0, 1);
  q.push(2.0, 2);
  EXPECT_EQ(q.pushed(), 2u);
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pushed(), 0u);
  q.push(1.0, 7);
  EXPECT_EQ(q.top().seq, 0u);
}

TEST(NetEventQueue, PopOnEmptyThrows) {
  EventQueue<int> q;
  EXPECT_THROW(q.pop(), std::invalid_argument);
  EXPECT_THROW((void)q.top(), std::invalid_argument);
}

// ------------------------------------------------------------ differential --

/// Frozen copy of the single binary min-heap the two-lane queue replaced:
/// the pop order every net run was pinned with. push_timer is a plain push.
class ReferenceQueue {
 public:
  using Entry = EventQueue<std::uint64_t>::Entry;

  std::uint64_t push(double time, std::uint64_t payload) {
    Entry entry;
    entry.time = time;
    entry.seq = next_seq_++;
    entry.payload = payload;
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return entry.seq;
  }
  std::uint64_t push_timer(double time, std::uint64_t payload) {
    return push(time, payload);
  }
  Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry entry = heap_.back();
    heap_.pop_back();
    return entry;
  }
  [[nodiscard]] const Entry& top() const { return heap_.front(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t pushed() const noexcept { return next_seq_; }
  void reset() {
    heap_.clear();
    next_seq_ = 0;
  }

 private:
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return b.before(a);
    }
  };
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Pops one event from both queues (after checking top() against it) and
/// returns false on the first disagreement.
bool pop_both(EventQueue<std::uint64_t>& q, ReferenceQueue& ref,
              double& now) {
  const auto peeked = q.top();
  const auto got = q.pop();
  const auto want = ref.pop();
  EXPECT_EQ(peeked.time, got.time);
  EXPECT_EQ(peeked.seq, got.seq);
  EXPECT_EQ(peeked.payload, got.payload);
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.payload, want.payload);
  now = got.time;
  return got.time == want.time && got.seq == want.seq &&
         got.payload == want.payload && peeked.seq == got.seq;
}

TEST(NetEventQueueDifferential, RandomOpMixesPopInReferenceHeapOrder) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    support::Xoshiro256 rng(seed);
    EventQueue<std::uint64_t> q;
    ReferenceQueue ref;
    // Per-seed shape: how often a step pops (small values grow deep queues
    // that exercise FIFO compaction), and the fixed link latency.
    const double pop_p = 0.25 + 0.5 * rng.uniform01();
    const double fixed_delta = 1.0 + std::floor(rng.uniform01() * 200.0);
    double now = 0.0;
    double last_push = 0.0;
    std::uint64_t payload = 0;
    bool ok = true;
    for (int step = 0; step < 6'000 && ok; ++step) {
      if (!q.empty() && rng.bernoulli(pop_p)) {
        ok = pop_both(q, ref, now);
        continue;
      }
      double time = now;
      bool timer = false;
      switch (rng.uniform_below(10)) {
        case 0:
        case 1:
        case 2:
          time = now + fixed_delta;  // in-order gossip
          break;
        case 3:
        case 4:
          time = now + rng.exponential(1.0 / fixed_delta);  // random latency
          break;
        case 5:
          time = last_push;  // equal-time tie with the previous push
          break;
        case 6:
          time = now;  // zero delay
          break;
        case 7:
          time = now + rng.exponential(1.0 / (50.0 * fixed_delta));
          timer = true;
          break;
        case 8:
          time = now + fixed_delta * static_cast<double>(rng.uniform_below(4));
          timer = rng.bernoulli(0.5);
          break;
        default:
          time = rng.uniform01() * (now + fixed_delta);  // anywhere, even past
          break;
      }
      last_push = time;
      const std::uint64_t a =
          timer ? q.push_timer(time, payload) : q.push(time, payload);
      const std::uint64_t b =
          timer ? ref.push_timer(time, payload) : ref.push(time, payload);
      ASSERT_EQ(a, b) << "seed " << seed << " step " << step;
      ++payload;
      ASSERT_EQ(q.size(), ref.size()) << "seed " << seed << " step " << step;
      if (rng.uniform_below(2'000) == 0) {
        q.reset();
        ref.reset();
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.pushed(), 0u);
        now = 0.0;
        last_push = 0.0;
      }
    }
    while (ok && !ref.empty()) ok = pop_both(q, ref, now);
    ASSERT_TRUE(ok) << "seed " << seed;
    EXPECT_TRUE(q.empty()) << "seed " << seed;
    EXPECT_EQ(q.pushed(), ref.pushed()) << "seed " << seed;
  }
}

TEST(NetEventQueueDifferential, DeepInOrderBacklogSurvivesCompaction) {
  // Thousands of fixed-latency messages in flight with a timer lane beside
  // them: the FIFO never drains, so its consumed prefix must be compacted
  // away mid-run without reordering anything.
  EventQueue<std::uint64_t> q;
  ReferenceQueue ref;
  support::Xoshiro256 rng(7);
  constexpr double kDelta = 5'000.0;
  std::uint64_t payload = 0;
  for (int i = 0; i < 5'000; ++i) {
    q.push(static_cast<double>(i), payload);
    ref.push(static_cast<double>(i), payload);
    ++payload;
  }
  q.push_timer(2'500.5, payload);
  ref.push_timer(2'500.5, payload);
  ++payload;
  double now = 0.0;
  for (int step = 0; step < 60'000; ++step) {
    ASSERT_TRUE(pop_both(q, ref, now)) << "step " << step;
    q.push(now + kDelta, payload);
    ref.push(now + kDelta, payload);
    ++payload;
    if (rng.uniform_below(500) == 0) {
      const double t = now + rng.exponential(1.0 / kDelta);
      q.push_timer(t, payload);
      ref.push_timer(t, payload);
      ++payload;
    }
    ASSERT_EQ(q.size(), ref.size());
  }
  while (!ref.empty()) ASSERT_TRUE(pop_both(q, ref, now));
  EXPECT_TRUE(q.empty());
}

TEST(NetEventQueueDifferential, ResetEmptiesBothLanesAndRestartsSeq) {
  EventQueue<int> q;
  q.push(1.0, 1);         // FIFO lane
  q.push(0.5, 2);         // out of order: heap lane
  q.push_timer(9.0, 3);   // heap lane
  EXPECT_EQ(q.size(), 3u);
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.pushed(), 0u);
  EXPECT_THROW(q.pop(), std::invalid_argument);
  // Nothing from before the reset resurfaces, in either lane, and a push at
  // an earlier time than the cleared FIFO tail still lands in order.
  EXPECT_EQ(q.push(0.25, 4), 0u);
  EXPECT_EQ(q.push_timer(0.1, 5), 1u);
  EXPECT_EQ(q.pop().payload, 5);
  EXPECT_EQ(q.pop().payload, 4);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace ethsm::net
