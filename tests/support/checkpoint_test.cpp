// Checkpoint-store and run_checkpointed contract tests: on-disk round trips,
// corruption/staleness detection, shard ownership, and the bitwise
// resumed-equals-fresh guarantee at the support layer. All suites here are
// named Checkpoint* so `ctest -L checkpoint` selects them.

#include "support/checkpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/parallel.h"
#include "support/rng.h"
#include "support/temp_dir.h"
#include "support/thread_pool.h"

namespace ethsm::support {
namespace {

namespace fs = std::filesystem;
using testutil::temp_path;

std::vector<std::byte> payload_of(std::uint64_t a, double b) {
  ByteWriter w;
  w.u64(a);
  w.f64(b);
  return w.bytes();
}

TEST(CheckpointShardSpec, ParsesWellFormedSpecs) {
  const auto s = parse_shard("2/5");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->index, 2u);
  EXPECT_EQ(s->count, 5u);
  EXPECT_TRUE(s->owns(0, 2));
  EXPECT_TRUE(s->owns(0, 7));
  EXPECT_FALSE(s->owns(0, 3));
  // The sweep fingerprint offsets the stripe: (fingerprint + job) % N == k.
  EXPECT_TRUE(s->owns(3, 4));
  EXPECT_FALSE(s->owns(3, 2));
}

TEST(CheckpointShardSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "3", "3/", "/4", "4/4", "5/4", "a/b", "1/0",
                          "1/2x", "x1/2", "-1/2"}) {
    EXPECT_FALSE(parse_shard(bad).has_value()) << "input: " << bad;
  }
}

TEST(CheckpointShardSpec, DefaultOwnsEverything) {
  const ShardSpec whole;
  EXPECT_TRUE(whole.is_whole_sweep());
  for (std::uint64_t fingerprint : {0ULL, 5ULL, ~0ULL}) {
    for (std::size_t j : {0u, 1u, 17u}) EXPECT_TRUE(whole.owns(fingerprint, j));
  }
}

TEST(CheckpointFingerprint, SensitiveToEveryMixedValue) {
  const auto base = [] {
    Fingerprint fp;
    fp.mix("driver/v1");
    fp.mix(0.25);
    fp.mix(std::uint64_t{100});
    return fp.digest();
  }();
  {
    Fingerprint fp;
    fp.mix("driver/v2");
    fp.mix(0.25);
    fp.mix(std::uint64_t{100});
    EXPECT_NE(fp.digest(), base);
  }
  {
    Fingerprint fp;
    fp.mix("driver/v1");
    fp.mix(0.25000001);
    fp.mix(std::uint64_t{100});
    EXPECT_NE(fp.digest(), base);
  }
  {
    Fingerprint fp;
    fp.mix("driver/v1");
    fp.mix(0.25);
    fp.mix(std::uint64_t{101});
    EXPECT_NE(fp.digest(), base);
  }
}

TEST(CheckpointBytes, RoundTripsBitPatterns) {
  ByteWriter w;
  w.u32(0xdeadbeefu);
  w.u64(~0ULL);
  w.f64(0.1);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.boolean(true);
  w.f64_vec({1.0, -2.5, 3e300});
  w.u64_vec({7, 8});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), ~0ULL);
  EXPECT_EQ(r.f64(), 0.1);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_TRUE(std::isnan(r.f64()));  // NaN payload preserved as bits
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.0, -2.5, 3e300}));
  EXPECT_EQ(r.u64_vec(), (std::vector<std::uint64_t>{7, 8}));
  EXPECT_TRUE(r.exhausted());
}

TEST(CheckpointBytes, ReaderThrowsOnUnderrun) {
  ByteWriter w;
  w.u32(1);
  ByteReader r(w.bytes());
  (void)r.u32();
  EXPECT_THROW((void)r.u64(), std::runtime_error);
}

TEST(CheckpointStoreTest, PersistsAndReloadsRecords) {
  const std::string dir = temp_path("roundtrip");
  {
    CheckpointStore store(dir, 0xabcdULL);
    EXPECT_EQ(store.size(), 0u);
    store.append(3, payload_of(3, 0.3));
    store.append(1, payload_of(1, 0.1));
  }
  CheckpointStore reloaded(dir, 0xabcdULL);
  ASSERT_EQ(reloaded.size(), 2u);
  ASSERT_TRUE(reloaded.contains(1));
  ASSERT_TRUE(reloaded.contains(3));
  EXPECT_FALSE(reloaded.contains(2));
  ByteReader r(reloaded.payload(3));
  EXPECT_EQ(r.u64(), 3u);
  EXPECT_EQ(r.f64(), 0.3);
}

TEST(CheckpointStoreTest, IgnoresStaleFingerprintFiles) {
  const std::string dir = temp_path("stale");
  {
    CheckpointStore old_sweep(dir, 0x111ULL);
    old_sweep.append(0, payload_of(0, 1.0));
    old_sweep.append(1, payload_of(1, 2.0));
  }
  // Same directory, different sweep fingerprint: old records must not leak.
  CheckpointStore new_sweep(dir, 0x222ULL);
  EXPECT_EQ(new_sweep.size(), 0u);
  new_sweep.append(0, payload_of(0, 9.0));
  // And the old sweep still reads its own records back.
  CheckpointStore old_again(dir, 0x111ULL);
  EXPECT_EQ(old_again.size(), 2u);
}

TEST(CheckpointStoreTest, TruncatedTailLosesOnlyTheLastRecord) {
  const std::string dir = temp_path("truncated");
  std::string file;
  {
    CheckpointStore store(dir, 0x333ULL);
    store.append(0, payload_of(0, 1.0));
    store.append(1, payload_of(1, 2.0));
    file = store.own_file_path();
  }
  // Chop a few bytes off the final record, as a kill mid-append would.
  fs::resize_file(file, fs::file_size(file) - 5);
  CheckpointStore reloaded(dir, 0x333ULL);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(reloaded.contains(0));
  EXPECT_FALSE(reloaded.contains(1));
}

TEST(CheckpointStoreTest, CorruptedPayloadStopsTrustingTheFile) {
  const std::string dir = temp_path("corrupt");
  std::string file;
  {
    CheckpointStore store(dir, 0x444ULL);
    store.append(0, payload_of(0, 1.0));
    store.append(1, payload_of(1, 2.0));
    file = store.own_file_path();
  }
  // Flip one byte inside the first record's payload (header is 24 bytes,
  // record header is 16): the checksum must reject it, and everything after
  // the corrupt record is untrusted too.
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24 + 16 + 4);
    char byte = 0;
    f.seekg(24 + 16 + 4);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(24 + 16 + 4);
    f.write(&byte, 1);
  }
  CheckpointStore reloaded(dir, 0x444ULL);
  EXPECT_EQ(reloaded.size(), 0u);
}

TEST(CheckpointStoreTest, AppendAfterTruncationRepairsTheTail) {
  const std::string dir = temp_path("repair");
  std::string file;
  {
    CheckpointStore store(dir, 0x555ULL);
    store.append(0, payload_of(0, 1.0));
    store.append(1, payload_of(1, 2.0));
    file = store.own_file_path();
  }
  fs::resize_file(file, fs::file_size(file) - 3);  // record 1 now truncated
  {
    // Reopening for writing drops the dead tail, then appends must land on a
    // clean boundary and stay readable.
    CheckpointStore store(dir, 0x555ULL);
    EXPECT_EQ(store.size(), 1u);
    store.append(2, payload_of(2, 3.0));
  }
  CheckpointStore reloaded(dir, 0x555ULL);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.contains(0));
  EXPECT_TRUE(reloaded.contains(2));
}

TEST(CheckpointStoreTest, TornHeaderIsRepairedNotAppendedAfter) {
  // Regression: a SIGKILL while the very first append is flushing the header
  // leaves the own file shorter than a header. Later runs must rewrite it
  // from scratch -- not append records after the garbage, which would make
  // every future record permanently unreadable.
  const std::string dir = temp_path("torn_header");
  std::string file;
  {
    CheckpointStore store(dir, 0x777ULL);
    store.append(0, payload_of(0, 1.0));
    file = store.own_file_path();
  }
  fs::resize_file(file, 10);  // torn mid-header
  {
    CheckpointStore store(dir, 0x777ULL);
    EXPECT_EQ(store.size(), 0u);
    store.append(1, payload_of(1, 2.0));
  }
  CheckpointStore reloaded(dir, 0x777ULL);
  EXPECT_EQ(reloaded.size(), 1u);
  EXPECT_TRUE(reloaded.contains(1));
}

TEST(CheckpointStoreTest, CorruptSizeFieldDoesNotDriveAllocation) {
  // A bit-flipped size field must be rejected against the file length before
  // any allocation happens (no multi-GiB vector from a 100-byte file).
  const std::string dir = temp_path("corrupt_size");
  std::string file;
  {
    CheckpointStore store(dir, 0x888ULL);
    store.append(0, payload_of(0, 1.0));
    file = store.own_file_path();
  }
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t huge = 0xFFFF0000ULL;
    f.seekp(24 + 8);  // the first record's size field
    f.write(reinterpret_cast<const char*>(&huge), sizeof huge);
  }
  CheckpointStore reloaded(dir, 0x888ULL);  // must not throw or OOM
  EXPECT_EQ(reloaded.size(), 0u);
}

TEST(CheckpointStoreTest, EveryByteTruncationRecoversTheValidPrefix) {
  // Fuzz the kill-mid-write story exhaustively: whatever byte a crash stops
  // the file at, reloading must recover exactly the records that were fully
  // flushed before that byte -- never a partial record, never fewer than the
  // intact prefix, and never a crash or overallocation.
  const std::string dir = temp_path("fuzz_truncate");
  std::string file;
  {
    CheckpointStore store(dir, 0x999ULL);
    // Varying payload sizes put record boundaries at irregular offsets.
    store.append(0, payload_of(0, 1.0));
    ByteWriter big;
    big.f64_vec({1.0, 2.0, 3.0, 4.0, 5.0});
    store.append(1, big.bytes());
    ByteWriter tiny;
    tiny.u32(7);
    store.append(2, tiny.bytes());
    store.append(3, payload_of(3, 4.0));
    file = store.own_file_path();
  }

  // Full file bytes + the offset at which each record ends (header is 24
  // bytes; each record is 16 bytes of header + payload + 8 checksum bytes).
  std::string full;
  {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    full = os.str();
  }
  const std::size_t payload_sizes[] = {16, 48, 4, 16};  // vec = u64 len + data
  std::vector<std::size_t> record_end;
  std::size_t cursor = 24;
  for (std::size_t size : payload_sizes) {
    cursor += 16 + size + 8;
    record_end.push_back(cursor);
  }
  ASSERT_EQ(cursor, full.size());

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::ofstream(file, std::ios::binary).write(full.data(),
                                                static_cast<std::streamsize>(cut));

    std::size_t expected = 0;
    while (expected < record_end.size() && record_end[expected] <= cut) {
      ++expected;
    }
    CheckpointStore store(dir, 0x999ULL);
    ASSERT_EQ(store.size(), expected) << "truncated at byte " << cut;
    for (std::size_t job = 0; job < expected; ++job) {
      EXPECT_TRUE(store.contains(job)) << "truncated at byte " << cut;
      EXPECT_EQ(store.payload(job).size(), payload_sizes[job])
          << "truncated at byte " << cut;
    }
  }
}

TEST(CheckpointStoreTest, GarbageFilesAreIgnored) {
  const std::string dir = temp_path("garbage");
  fs::create_directories(dir);
  std::ofstream(dir + "/noise.ethsmck") << "not a checkpoint at all";
  std::ofstream(dir + "/short.ethsmck") << "tiny";
  CheckpointStore store(dir, 0x666ULL);
  EXPECT_EQ(store.size(), 0u);
  store.append(0, payload_of(0, 1.0));
  CheckpointStore reloaded(dir, 0x666ULL);
  EXPECT_EQ(reloaded.size(), 1u);
}

// ------------------------------------------------------- run_checkpointed --

double job_value(std::size_t i) {
  // An irrational-ish pure function of the index: any reordering or seed
  // drift changes bits.
  return std::sin(static_cast<double>(i) * 1.618033988749895) + 1.0 / (i + 1.0);
}

/// job_value as the job of a one-sweep region: (sweep, i) -> job_value(i).
double one_sweep_value(std::size_t, std::size_t i) { return job_value(i); }

TEST(CheckpointedRun, DisabledMatchesParallelMap) {
  const auto plain = parallel_map(10, job_value);
  SweepOutcome outcome;
  const auto sweep = run_checkpointed<double>(SweepCheckpoint{}, &outcome,
                                              {{0x1ULL, 10}}, one_sweep_value)
                         .front();
  ASSERT_TRUE(outcome.complete());
  EXPECT_EQ(sweep.results, plain);
  EXPECT_EQ(outcome.computed, 10u);
}

TEST(CheckpointedRun, InterruptedThenResumedIsBitwiseIdentical) {
  const std::size_t n = 23;
  const auto fresh = run_checkpointed<double>(SweepCheckpoint{}, nullptr,
                                              {{0x2ULL, n}}, one_sweep_value)
                         .front();

  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("resume");
  ckpt.max_new_jobs = 7;  // "interrupt" after a bounded job budget
  std::size_t total_computed = 0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    SweepOutcome outcome;
    const auto partial = run_checkpointed<double>(ckpt, &outcome, {{0x2ULL, n}},
                                                  one_sweep_value)
                             .front();
    total_computed += outcome.computed;
    if (outcome.complete()) {
      EXPECT_EQ(partial.results, fresh.results);  // exact double equality
      EXPECT_EQ(total_computed, n);               // nothing ran twice
      return;
    }
  }
  FAIL() << "resume never completed";
}

TEST(CheckpointedRun, FourWayShardMergeIsBitwiseIdentical) {
  const std::size_t n = 18;
  const auto fresh = run_checkpointed<double>(SweepCheckpoint{}, nullptr,
                                              {{0x3ULL, n}}, one_sweep_value)
                         .front();

  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("shard4");
  for (std::uint32_t k = 0; k < 4; ++k) {
    ckpt.shard = ShardSpec{k, 4};
    SweepOutcome outcome;
    (void)run_checkpointed<double>(ckpt, &outcome, {{0x3ULL, n}},
                                   one_sweep_value);
    if (k < 3) EXPECT_FALSE(outcome.complete());
  }
  // Merge pass: every record comes from disk, none recomputed.
  ckpt.shard = ShardSpec{};
  SweepOutcome outcome;
  const auto merged = run_checkpointed<double>(ckpt, &outcome, {{0x3ULL, n}},
                                               one_sweep_value)
                          .front();
  ASSERT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.loaded, n);
  EXPECT_EQ(outcome.computed, 0u);
  EXPECT_EQ(merged.results, fresh.results);
}

TEST(CheckpointedRun, ShardsOnlyComputeOwnedIndices) {
  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("owned");
  ckpt.shard = ShardSpec{1, 3};
  SweepOutcome outcome;
  const auto part =
      run_checkpointed<std::uint64_t>(
          ckpt, &outcome, {{0x4ULL, 10}},
          [](std::size_t, std::size_t i) { return std::uint64_t{i}; })
          .front();
  EXPECT_EQ(outcome.computed, 4u);  // indices 0, 3, 6, 9: (4 + i) % 3 == 1
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(part.have[i] != 0, (0x4 + i) % 3 == 1) << "index " << i;
  }
}

TEST(CheckpointedRun, ShortSweepsTogetherReachEveryShard) {
  // 16 sweeps of 3 jobs over 8 shards: striped by index alone, shards 3-7
  // would own nothing. Offset by fingerprints 0..15, sweep s covers shards
  // s, s + 1 and s + 2 (mod 8), so every shard owns exactly 6 of the 48.
  std::vector<SweepKey> sweeps;
  for (std::uint64_t s = 0; s < 16; ++s) sweeps.push_back({s, 3});
  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("short_sweeps");
  for (std::uint32_t k = 0; k < 8; ++k) {
    ckpt.shard = ShardSpec{k, 8};
    SweepOutcome outcome;
    (void)run_checkpointed<std::uint64_t>(
        ckpt, &outcome, sweeps,
        [](std::size_t s, std::size_t i) { return std::uint64_t{s * 3 + i}; });
    EXPECT_EQ(outcome.computed, 6u) << "shard " << k;
  }
  ckpt.shard = ShardSpec{};
  SweepOutcome merged;
  (void)run_checkpointed<std::uint64_t>(
      ckpt, &merged, sweeps,
      [](std::size_t s, std::size_t i) { return std::uint64_t{s * 3 + i}; });
  EXPECT_EQ(merged.loaded, 48u);
  EXPECT_EQ(merged.computed, 0u);
}

TEST(CheckpointedRun, IncompleteSweepWithoutOutcomeIsRefused) {
  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("refused");
  ckpt.max_new_jobs = 2;
  EXPECT_THROW(
      (void)run_checkpointed<double>(ckpt, nullptr, {{0x5ULL, 6}},
                                     one_sweep_value),
      std::logic_error);
}

TEST(CheckpointedRun, SeededRunsAbsorbInRunOrder) {
  // Job r sees derive_seed(seed, r); absorption follows r, not completion.
  SweepOutcome outcome;
  std::vector<std::uint64_t> absorbed;
  run_seeded(
      SweepCheckpoint{}, &outcome, {{0x6ULL, 42, 5}},
      [](std::size_t, std::uint64_t seed) { return seed; },
      [&](std::size_t, std::uint64_t seed) { absorbed.push_back(seed); });
  ASSERT_EQ(absorbed.size(), 5u);
  for (std::uint64_t r = 0; r < 5; ++r) {
    EXPECT_EQ(absorbed[r], derive_seed(42, r)) << "run " << r;
  }
  EXPECT_EQ(outcome.jobs_total, 5u);
  EXPECT_EQ(outcome.computed, 5u);
}

// ------------------------------------------------- batched run_checkpointed --

/// Three sweeps of one batched region; job (s, i) is a pure function of both.
const std::vector<SweepKey> kBatch = {{0x71ULL, 5}, {0x72ULL, 6}, {0x73ULL, 4}};

double batch_value(std::size_t s, std::size_t i) {
  return job_value(10 * s + i);
}

class CheckpointedBatch : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { ThreadPool::set_global_concurrency(GetParam()); }
  void TearDown() override {
    ThreadPool::set_global_concurrency(ThreadPool::default_concurrency());
  }
};

TEST_P(CheckpointedBatch, EverySweepMatchesItsSingleSweepRun) {
  SweepOutcome outcome;
  const auto batch = run_checkpointed<double>(SweepCheckpoint{}, &outcome,
                                              kBatch, batch_value);
  ASSERT_EQ(batch.size(), kBatch.size());
  EXPECT_EQ(outcome.jobs_total, 15u);
  EXPECT_EQ(outcome.computed, 15u);
  for (std::size_t s = 0; s < kBatch.size(); ++s) {
    const auto single = run_checkpointed<double>(
        SweepCheckpoint{}, nullptr, {kBatch[s]},
        [s](std::size_t, std::size_t i) { return batch_value(s, i); });
    EXPECT_EQ(batch[s].results, single.front().results) << "sweep " << s;
  }
}

TEST_P(CheckpointedBatch, OneBudgetIsTakenInSweepIndexOrder) {
  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("budget");
  ckpt.max_new_jobs = 7;  // all of sweep 0, then the first two of sweep 1
  SweepOutcome outcome;
  const auto part =
      run_checkpointed<double>(ckpt, &outcome, kBatch, batch_value);
  EXPECT_EQ(outcome.computed, 7u);
  EXPECT_EQ(outcome.skipped, 8u);
  EXPECT_EQ(part[0].have, std::vector<char>(5, 1));
  EXPECT_EQ(part[1].have, (std::vector<char>{1, 1, 0, 0, 0, 0}));
  EXPECT_EQ(part[2].have, std::vector<char>(4, 0));
}

TEST_P(CheckpointedBatch, FailedJobDrainsTheRegionAndTheRerunResumes) {
  const auto fresh =
      run_checkpointed<double>(SweepCheckpoint{}, nullptr, kBatch, batch_value);

  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("failing");
  std::atomic<int> finished{0};
  EXPECT_THROW(
      (void)run_checkpointed<double>(
          ckpt, nullptr, kBatch,
          [&](std::size_t s, std::size_t i) {
            if (s == 1 && i == 2) throw std::runtime_error("job (1, 2) failed");
            finished.fetch_add(1);
            return batch_value(s, i);
          }),
      std::runtime_error);
  // The error surfaced only after every other job of every sweep ran and
  // was appended to its sweep's store.
  EXPECT_EQ(finished.load(), 14);
  EXPECT_EQ(read_checkpoint_records(ckpt.directory, 0x71ULL).size(), 5u);
  EXPECT_EQ(read_checkpoint_records(ckpt.directory, 0x72ULL).size(), 5u);
  EXPECT_EQ(read_checkpoint_records(ckpt.directory, 0x73ULL).size(), 4u);

  // The fail-soft retry: a rerun loads what finished and computes the rest.
  SweepOutcome outcome;
  const auto resumed =
      run_checkpointed<double>(ckpt, &outcome, kBatch, batch_value);
  ASSERT_TRUE(outcome.complete());
  EXPECT_EQ(outcome.loaded, 14u);
  EXPECT_EQ(outcome.computed, 1u);
  for (std::size_t s = 0; s < kBatch.size(); ++s) {
    EXPECT_EQ(resumed[s].results, fresh[s].results) << "sweep " << s;
  }
}

TEST_P(CheckpointedBatch, RepeatedFingerprintSharesTheEarlierSweep) {
  // Two series with the same key: the second is satisfied by the first, as
  // if it had run after it, and nothing is computed twice.
  const std::vector<SweepKey> twice = {{0x81ULL, 4}, {0x81ULL, 4}};
  SweepCheckpoint ckpt;
  ckpt.directory = temp_path("repeated");
  SweepOutcome outcome;
  std::atomic<int> calls{0};
  const auto sweeps = run_checkpointed<double>(
      ckpt, &outcome, twice, [&](std::size_t, std::size_t i) {
        calls.fetch_add(1);
        return job_value(i);
      });
  EXPECT_EQ(calls.load(), 4);
  EXPECT_EQ(outcome.computed, 4u);
  EXPECT_EQ(outcome.loaded, 4u);
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(sweeps[1].results, sweeps[0].results);
}

INSTANTIATE_TEST_SUITE_P(Checkpoint, CheckpointedBatch,
                         ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "_threads";
                         });

}  // namespace
}  // namespace ethsm::support
