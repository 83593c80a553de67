// CheckpointStore::import_directory -- the sync-back path of `ethsm
// orchestrate`: a coordinator store absorbs a worker's private checkpoint
// directory. Contract under test: only records matching the store's
// fingerprint move, a torn worker file contributes exactly its valid prefix,
// re-importing is idempotent, the source directory is never written, and an
// import racing a live local writer never tears the coordinator's own file.
// Suites are named CheckpointImport* so `ctest -L checkpoint` selects them.

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

std::vector<std::byte> payload_for(std::uint64_t job) {
  ByteWriter writer;
  writer.u64(job);
  writer.u64(job * 0x9e3779b97f4a7c15ULL);
  writer.f64(static_cast<double>(job) * 0.5);
  return writer.bytes();
}

void fill_store(const std::string& dir, std::uint64_t fingerprint,
                std::uint64_t first_job, std::uint64_t jobs,
                std::uint64_t stride = 1) {
  CheckpointStore store(dir, fingerprint);
  for (std::uint64_t i = 0; i < jobs; ++i) {
    store.append(first_job + i * stride, payload_for(first_job + i * stride));
  }
}

std::uintmax_t directory_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

TEST(CheckpointImport, MergesWorkerRecordsAndIsIdempotent) {
  constexpr std::uint64_t kFingerprint = 0xabcdULL;
  const std::string coordinator_dir = temp_path("merge_coord");
  const std::string worker_dir = temp_path("merge_worker");
  fill_store(worker_dir, kFingerprint, /*first_job=*/0, /*jobs=*/10,
             /*stride=*/2);  // jobs 0, 2, ..., 18 (a shard's stripe)

  CheckpointStore coordinator(coordinator_dir, kFingerprint);
  coordinator.append(1, payload_for(1));  // coordinator-side work survives

  EXPECT_EQ(coordinator.import_directory(worker_dir), 10u);
  EXPECT_EQ(coordinator.size(), 11u);
  for (std::uint64_t job : {0ull, 2ull, 18ull, 1ull}) {
    ASSERT_TRUE(coordinator.contains(job)) << "job " << job;
    EXPECT_EQ(coordinator.payload(job), payload_for(job));
  }

  // Re-syncing the same worker directory must append nothing.
  EXPECT_EQ(coordinator.import_directory(worker_dir), 0u);
  EXPECT_EQ(coordinator.size(), 11u);
}

TEST(CheckpointImport, ImportedRecordsPersistAcrossReload) {
  constexpr std::uint64_t kFingerprint = 0x1122ULL;
  const std::string coordinator_dir = temp_path("reload_coord");
  const std::string worker_dir = temp_path("reload_worker");
  fill_store(worker_dir, kFingerprint, 0, 7);

  {
    CheckpointStore coordinator(coordinator_dir, kFingerprint);
    EXPECT_EQ(coordinator.import_directory(worker_dir), 7u);
  }
  // A fresh store over the coordinator directory (the merge pass) sees the
  // imported records without ever touching the worker directory again.
  CheckpointStore merged(coordinator_dir, kFingerprint);
  EXPECT_EQ(merged.size(), 7u);
  for (std::uint64_t job = 0; job < 7; ++job) {
    EXPECT_EQ(merged.payload(job), payload_for(job));
  }
}

TEST(CheckpointImport, IgnoresForeignFingerprintSweeps) {
  const std::string coordinator_dir = temp_path("foreign_coord");
  const std::string worker_dir = temp_path("foreign_worker");
  fill_store(worker_dir, /*fingerprint=*/0xaaaaULL, 0, 5);
  fill_store(worker_dir, /*fingerprint=*/0xbbbbULL, 0, 3);

  CheckpointStore coordinator(coordinator_dir, 0xbbbbULL);
  EXPECT_EQ(coordinator.import_directory(worker_dir), 3u);
  EXPECT_EQ(coordinator.size(), 3u);

  CheckpointStore other(coordinator_dir, 0xccccULL);
  EXPECT_EQ(other.import_directory(worker_dir), 0u);
}

TEST(CheckpointImport, RecoversValidPrefixOfPartiallySyncedWorkerFile) {
  constexpr std::uint64_t kFingerprint = 0x7777ULL;
  const std::string coordinator_dir = temp_path("torn_coord");
  const std::string worker_dir = temp_path("torn_worker");
  fill_store(worker_dir, kFingerprint, 0, 6);

  // Chop the tail of the worker's file mid-record -- a worker killed during
  // an append, or a partially scp'd sync. The walk must surface every record
  // before the tear and nothing after it.
  std::string file;
  for (const auto& entry : fs::directory_iterator(worker_dir)) {
    file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  const std::uintmax_t size = fs::file_size(file);
  fs::resize_file(file, size - 5);

  CheckpointStore coordinator(coordinator_dir, kFingerprint);
  EXPECT_EQ(coordinator.import_directory(worker_dir), 5u);
  for (std::uint64_t job = 0; job < 5; ++job) {
    EXPECT_EQ(coordinator.payload(job), payload_for(job));
  }
  EXPECT_FALSE(coordinator.contains(5));
}

TEST(CheckpointImport, NeverWritesTheSourceDirectory) {
  constexpr std::uint64_t kFingerprint = 0x4242ULL;
  const std::string coordinator_dir = temp_path("readonly_coord");
  const std::string worker_dir = temp_path("readonly_worker");
  fill_store(worker_dir, kFingerprint, 0, 4);
  const std::uintmax_t before = directory_bytes(worker_dir);

  CheckpointStore coordinator(coordinator_dir, kFingerprint);
  EXPECT_EQ(coordinator.import_directory(worker_dir), 4u);
  EXPECT_EQ(directory_bytes(worker_dir), before);

  // A missing source is an empty import, not an error (a worker that died
  // before creating its directory).
  const std::string missing = temp_path("readonly_missing");
  ASSERT_FALSE(fs::exists(missing));
  EXPECT_EQ(coordinator.import_directory(missing), 0u);
}

TEST(CheckpointImport, ImportRacingALiveLocalWriterNeverTears) {
  constexpr std::uint64_t kFingerprint = 0x9e9eULL;
  constexpr std::uint64_t kLocalJobs = 300;
  constexpr int kWorkerDirs = 4;
  const std::string coordinator_dir = temp_path("race_coord");

  // Worker directories carry disjoint job stripes above the local range.
  std::vector<std::string> worker_dirs;
  for (int w = 0; w < kWorkerDirs; ++w) {
    worker_dirs.push_back(temp_path("race_worker" + std::to_string(w)));
    fill_store(worker_dirs.back(), kFingerprint, kLocalJobs + w, 50,
               kWorkerDirs);
  }

  CheckpointStore coordinator(coordinator_dir, kFingerprint);
  std::atomic<std::size_t> imported{0};
  std::thread importer([&] {
    for (const std::string& dir : worker_dirs) {
      imported += coordinator.import_directory(dir);
    }
  });
  // The live local writer: pool-thread appends while imports land in the
  // same store file. Both go through append_locked, so the on-disk file must
  // end up a valid record sequence containing every job exactly once.
  for (std::uint64_t job = 0; job < kLocalJobs; ++job) {
    coordinator.append(job, payload_for(job));
  }
  importer.join();

  EXPECT_EQ(imported.load(), static_cast<std::size_t>(kWorkerDirs) * 50);
  EXPECT_EQ(coordinator.size(), kLocalJobs + kWorkerDirs * 50);

  const auto on_disk = read_checkpoint_records(coordinator_dir, kFingerprint);
  ASSERT_EQ(on_disk.size(), kLocalJobs + kWorkerDirs * 50);
  for (const auto& [job, payload] : on_disk) {
    EXPECT_EQ(payload, payload_for(job)) << "job " << job;
  }
}

}  // namespace
}  // namespace ethsm::support
