// Unit contracts of the serve building blocks: the ResultTable's LRU
// payloads, dedupe leadership and admission budgets, and the BlockingQueue
// shutdown behavior. All suites are named Serve* so
// `ctest -L serve` selects them.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/blocking_queue.h"
#include "serve/result_table.h"

namespace ethsm::serve {
namespace {

/// Leads, computes and stores `payload` for `fingerprint`.
void fill(ResultTable& table, std::uint64_t fingerprint, std::string payload) {
  ASSERT_EQ(table.begin(fingerprint, "filler").fate, ResultTable::Fate::lead);
  table.finish(fingerprint, true, std::move(payload));
}

TEST(ServeTable, HitAfterFinishRoundTrips) {
  ResultTable table(4, {});
  EXPECT_EQ(table.begin(1, "a").fate, ResultTable::Fate::lead);
  table.finish(1, true, "one");
  const ResultTable::Ticket hit = table.begin(1, "a");
  EXPECT_EQ(hit.fate, ResultTable::Fate::hit);
  EXPECT_EQ(hit.payload, "one");
  EXPECT_EQ(table.stats().hits, 1u);
  EXPECT_EQ(table.stats().misses, 1u);
}

TEST(ServeTable, EvictsLeastRecentlyUsed) {
  ResultTable table(2, {});
  fill(table, 1, "one");
  fill(table, 2, "two");
  ASSERT_EQ(table.begin(1, "a").fate, ResultTable::Fate::hit);  // 2 is LRU
  fill(table, 3, "three");                                       // evicts 2
  EXPECT_FALSE(table.contains(2));
  EXPECT_TRUE(table.contains(1));
  EXPECT_TRUE(table.contains(3));
  EXPECT_EQ(table.stats().evictions, 1u);
  EXPECT_EQ(table.stats().entries, 2u);
}

TEST(ServeTable, RestoringAnEvictedRecordRefreshesIt) {
  ResultTable table(2, {});
  table.remember(1, "spec one");
  fill(table, 1, "one");
  fill(table, 2, "two");
  fill(table, 3, "three");  // evicts 1's payload; its spec text stays
  EXPECT_EQ(table.spec(1), "spec one");
  fill(table, 1, "uno");    // the same record again, now most recent
  EXPECT_EQ(table.stats().evictions, 2u);
  EXPECT_EQ(table.stats().entries, 2u);
  fill(table, 4, "four");   // evicts 3, not the refreshed 1
  EXPECT_FALSE(table.contains(3));
  const ResultTable::Ticket hit = table.begin(1, "a");
  EXPECT_EQ(hit.fate, ResultTable::Fate::hit);
  EXPECT_EQ(hit.payload, "uno");
}

TEST(ServeTable, ContainsDoesNotSkewAccountingOrRecency) {
  ResultTable table(2, {});
  fill(table, 1, "one");
  fill(table, 2, "two");
  EXPECT_TRUE(table.contains(1));
  EXPECT_FALSE(table.contains(9));
  EXPECT_EQ(table.stats().hits, 0u);
  EXPECT_EQ(table.stats().misses, 2u);  // the two fills' leading begins
  fill(table, 3, "three");  // 1 is still the LRU entry: contains bumped none
  EXPECT_FALSE(table.contains(1));
  EXPECT_TRUE(table.contains(2));
}

TEST(ServeTable, CapacityClampsToOne) {
  ResultTable table(0, {});
  EXPECT_EQ(table.stats().capacity, 1u);
  fill(table, 1, "one");
  fill(table, 2, "two");
  EXPECT_EQ(table.stats().entries, 1u);
}

TEST(ServeTable, SecondBeginAttachesAsFollower) {
  // One slot in all: attaching needs none, so the over-budget client follows.
  ResultTable table(4, {1, 1});
  EXPECT_EQ(table.begin(7, "a").fate, ResultTable::Fate::lead);
  const ResultTable::Ticket follower = table.begin(7, "a");
  EXPECT_EQ(follower.fate, ResultTable::Fate::follow);
  EXPECT_EQ(table.stats().jobs, 1u);
  EXPECT_TRUE(table.running(7));
  EXPECT_EQ(table.stats().attached, 1u);
  EXPECT_EQ(table.stats().misses, 2u);

  table.finish(7, true, "payload");
  EXPECT_EQ(table.stats().jobs, 0u);
  EXPECT_FALSE(table.running(7));
  EXPECT_TRUE(table.contains(7));
  const ResultTable::Outcome outcome = table.wait(follower);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.payload, "payload");
}

TEST(ServeTable, FollowersBlockedInWaitGetTheOutcome) {
  ResultTable table(4, {});
  ASSERT_EQ(table.begin(7, "leader").fate, ResultTable::Fate::lead);
  std::vector<std::thread> followers;
  std::vector<ResultTable::Outcome> outcomes(4);
  for (int i = 0; i < 4; ++i) {
    followers.emplace_back([&table, &outcomes, i] {
      const ResultTable::Ticket ticket = table.begin(7, "follower");
      EXPECT_EQ(ticket.fate, ResultTable::Fate::follow);
      outcomes[static_cast<std::size_t>(i)] = table.wait(ticket);
    });
  }
  // Wait until every follower has attached (a begin() after finish() would
  // start a fresh job and the follower would be its leader), then finish.
  // Followers may or may not have reached wait() yet; finish must wake both
  // the already-blocked and the not-yet-blocked ones.
  while (table.stats().attached < 4) std::this_thread::yield();
  table.finish(7, false, "boom");
  for (auto& thread : followers) thread.join();
  for (const auto& outcome : outcomes) {
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.payload, "boom");
  }
  EXPECT_FALSE(table.contains(7));  // failures are not stored
}

TEST(ServeTable, FinishedFingerprintStartsFresh) {
  ResultTable table(4, {});
  ASSERT_EQ(table.begin(7, "a").fate, ResultTable::Fate::lead);
  table.finish(7, false, "transient");
  EXPECT_EQ(table.begin(7, "a").fate, ResultTable::Fate::lead);  // new job
  table.finish(7, true, "two");
}

TEST(ServeTable, EnforcesGlobalBudget) {
  ResultTable table(4, {2, 2});
  EXPECT_EQ(table.begin(1, "a").fate, ResultTable::Fate::lead);
  EXPECT_EQ(table.begin(2, "b").fate, ResultTable::Fate::lead);
  EXPECT_EQ(table.begin(3, "c").fate, ResultTable::Fate::rejected);
  EXPECT_EQ(table.stats().rejected, 1u);
  table.finish(1, true, "one");
  EXPECT_EQ(table.begin(3, "c").fate, ResultTable::Fate::lead);
  EXPECT_EQ(table.stats().jobs, 2u);
}

TEST(ServeTable, EnforcesPerClientBudget) {
  ResultTable table(4, {8, 1});
  EXPECT_EQ(table.begin(1, "a").fate, ResultTable::Fate::lead);
  EXPECT_EQ(table.begin(2, "a").fate, ResultTable::Fate::rejected);
  EXPECT_EQ(table.begin(3, "b").fate, ResultTable::Fate::lead);  // others free
  table.finish(1, true, "one");
  EXPECT_EQ(table.begin(2, "a").fate, ResultTable::Fate::lead);
}

TEST(ServeTable, RejectedBeginLeavesNoJob) {
  ResultTable table(4, {8, 1});
  EXPECT_EQ(table.begin(1, "a").fate, ResultTable::Fate::lead);
  EXPECT_EQ(table.begin(2, "a").fate, ResultTable::Fate::rejected);
  EXPECT_FALSE(table.running(2));
  EXPECT_EQ(table.stats().jobs, 1u);
  // Nothing to attach to: a client with budget leads the fingerprint.
  EXPECT_EQ(table.begin(2, "b").fate, ResultTable::Fate::lead);
  EXPECT_EQ(table.stats().attached, 0u);
}

TEST(ServeQueue, PushPopRoundTripsInOrder) {
  BlockingQueue<int> queue(4);
  ASSERT_TRUE(queue.push_wait(1, std::chrono::milliseconds(10)));
  ASSERT_TRUE(queue.push_wait(2, std::chrono::milliseconds(10)));
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
}

TEST(ServeQueue, FullQueueTimesOutThePush) {
  BlockingQueue<int> queue(1);
  ASSERT_TRUE(queue.push_wait(1, std::chrono::milliseconds(5)));
  EXPECT_FALSE(queue.push_wait(2, std::chrono::milliseconds(5)));
}

TEST(ServeQueue, CloseDrainsThenUnblocksPop) {
  BlockingQueue<int> queue(4);
  ASSERT_TRUE(queue.push_wait(1, std::chrono::milliseconds(5)));
  queue.close();
  EXPECT_FALSE(queue.push_wait(2, std::chrono::milliseconds(5)));
  EXPECT_EQ(queue.pop(), 1);              // pending item still drains
  EXPECT_EQ(queue.pop(), std::nullopt);   // then pops report shutdown
}

TEST(ServeQueue, CloseWakesABlockedPop) {
  BlockingQueue<int> queue(4);
  std::thread popper([&queue] { EXPECT_EQ(queue.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  popper.join();
}

}  // namespace
}  // namespace ethsm::serve
