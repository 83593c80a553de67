// Writer/reader concurrency contract of the checkpoint store (relied on by
// `ethsm serve`): one live writer appending to a sweep while concurrent
// readers merge the same directory through read_checkpoint_records. Readers
// must only ever observe a valid record prefix -- a mid-append tail record
// is simply absent, never torn. Suites are named CheckpointConcurrent* so
// both `ctest -L checkpoint` and `ctest -L serve` select them.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "support/checkpoint.h"
#include "support/temp_dir.h"

namespace ethsm::support {
namespace {

namespace fs = std::filesystem;
using testutil::temp_path;

/// Deterministic payload for a job: readers verify bytes, not just counts.
std::vector<std::byte> payload_for(std::uint64_t job) {
  ByteWriter writer;
  writer.u64(job);
  writer.u64(job * 0x9e3779b97f4a7c15ULL);
  writer.f64(static_cast<double>(job) * 0.25);
  return writer.bytes();
}

TEST(CheckpointConcurrent, ReadersNeverObserveTornRecordsUnderALiveWriter) {
  const std::string dir = temp_path("live_writer");
  constexpr std::uint64_t kFingerprint = 0xfeedULL;
  constexpr std::uint64_t kJobs = 400;

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    CheckpointStore store(dir, kFingerprint);
    for (std::uint64_t job = 0; job < kJobs; ++job) {
      store.append(job, payload_for(job));
    }
    writer_done.store(true);
  });

  // Readers hammer the directory the whole time the writer appends. Every
  // record they see must be complete and byte-correct, and the observed
  // record count must only ever grow (valid prefix property).
  std::vector<std::thread> readers;
  std::atomic<bool> failed{false};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::size_t last_seen = 0;
      while (!writer_done.load()) {
        const auto records = read_checkpoint_records(dir, kFingerprint);
        if (records.size() < last_seen) failed.store(true);
        last_seen = records.size();
        for (const auto& [job, bytes] : records) {
          if (bytes != payload_for(job)) failed.store(true);
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(failed.load());

  // After the writer lands, a final read sees every record.
  const auto records = read_checkpoint_records(dir, kFingerprint);
  ASSERT_EQ(records.size(), kJobs);
  for (const auto& [job, bytes] : records) {
    EXPECT_EQ(bytes, payload_for(job)) << "job " << job;
  }
}

TEST(CheckpointConcurrent, TruncatedTailRecordIsInvisibleToReaders) {
  const std::string dir = temp_path("torn_tail");
  constexpr std::uint64_t kFingerprint = 0x7ea1ULL;
  std::string file;
  {
    CheckpointStore store(dir, kFingerprint);
    store.append(1, payload_for(1));
    store.append(2, payload_for(2));
    file = store.own_file_path();
  }
  // Chop bytes off the tail: every truncation point inside the last record
  // must hide exactly that record and keep the first intact.
  const auto full_size = fs::file_size(file);
  const auto records_before = read_checkpoint_records(dir, kFingerprint);
  ASSERT_EQ(records_before.size(), 2u);
  for (std::uintmax_t cut = 1; cut < 40; ++cut) {
    fs::resize_file(file, full_size - cut);
    const auto records = read_checkpoint_records(dir, kFingerprint);
    ASSERT_EQ(records.size(), 1u) << "cut " << cut;
    EXPECT_EQ(records.count(1), 1u);
    EXPECT_EQ(records.at(1), payload_for(1));
  }
}

TEST(CheckpointConcurrent, CorruptMiddleRecordStopsTheWalkThere) {
  const std::string dir = temp_path("corrupt");
  constexpr std::uint64_t kFingerprint = 0xbadULL;
  std::string file;
  std::uintmax_t first_record_end = 0;
  {
    CheckpointStore store(dir, kFingerprint);
    store.append(1, payload_for(1));
    first_record_end = fs::file_size(store.own_file_path());
    store.append(2, payload_for(2));
    store.append(3, payload_for(3));
    file = store.own_file_path();
  }
  // Flip one byte inside record 2's payload: records 2 AND 3 must vanish
  // (the walk stops trusting the file at the first checksum failure).
  {
    std::fstream stream(file,
                        std::ios::binary | std::ios::in | std::ios::out);
    stream.seekp(static_cast<std::streamoff>(first_record_end) + 20);
    char byte = 0;
    stream.read(&byte, 1);
    stream.seekp(static_cast<std::streamoff>(first_record_end) + 20);
    byte = static_cast<char>(byte ^ 0x5a);
    stream.write(&byte, 1);
  }
  const auto records = read_checkpoint_records(dir, kFingerprint);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.at(1), payload_for(1));
}

TEST(CheckpointConcurrent, ReadIgnoresForeignSweepsAndMergesShards) {
  const std::string dir = temp_path("merge");
  {
    CheckpointStore mine_a(dir, 7, ShardSpec{0, 2});
    mine_a.append(0, payload_for(0));
    mine_a.append(2, payload_for(2));
    CheckpointStore mine_b(dir, 7, ShardSpec{1, 2});
    mine_b.append(1, payload_for(1));
    CheckpointStore other(dir, 8);
    other.append(9, payload_for(9));
  }
  const auto records = read_checkpoint_records(dir, 7);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.count(9), 0u);  // other sweep's record not merged
  for (const std::uint64_t job : {0ULL, 1ULL, 2ULL}) {
    EXPECT_EQ(records.at(job), payload_for(job));
  }
}

TEST(CheckpointConcurrent, MissingDirectoryReadsAsEmpty) {
  EXPECT_TRUE(
      read_checkpoint_records(temp_path("missing") + "/nope", 1).empty());
}

}  // namespace
}  // namespace ethsm::support
