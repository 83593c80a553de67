// Checkpoint directory scanning (the substrate of `ethsm checkpoint-stats`
// and its --prune GC): per-file fingerprint/record/byte accounting, corrupt
// header handling, and agreement between the scanner's record counts and
// what a CheckpointStore actually persisted.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "api/presets.h"
#include "api/runner.h"
#include "api/study.h"
#include "support/checkpoint.h"
#include "support/temp_dir.h"

namespace ethsm::support {
namespace {

namespace fs = std::filesystem;

class CheckpointScanTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testutil::temp_dir("scan"); }

  fs::path dir_;
};

TEST_F(CheckpointScanTest, ReportsEveryFileWithFingerprintAndRecords) {
  {
    CheckpointStore store_a(dir_.string(), 0xAAAAu);
    ByteWriter w;
    w.f64(1.5);
    store_a.append(0, w.bytes());
    store_a.append(1, w.bytes());
    store_a.append(2, w.bytes());
    CheckpointStore store_b(dir_.string(), 0xBBBBu, ShardSpec{0, 2});
    store_b.append(0, w.bytes());
  }
  // A file with a corrupt header must be listed as unreadable, not trusted.
  std::ofstream(dir_ / "garbage.ethsmck") << "not a checkpoint";

  const auto files = scan_checkpoint_directory(dir_.string());
  ASSERT_EQ(files.size(), 3u);

  std::size_t readable = 0;
  for (const auto& file : files) {
    if (!file.readable) {
      EXPECT_NE(file.path.find("garbage"), std::string::npos);
      continue;
    }
    ++readable;
    if (file.fingerprint == 0xAAAAu) {
      EXPECT_EQ(file.records, 3u);
    } else {
      EXPECT_EQ(file.fingerprint, 0xBBBBu);
      EXPECT_EQ(file.records, 1u);
    }
    EXPECT_GT(file.bytes, 0u);
  }
  EXPECT_EQ(readable, 2u);
}

TEST_F(CheckpointScanTest, MissingDirectoryYieldsEmpty) {
  EXPECT_TRUE(scan_checkpoint_directory((dir_ / "nope").string()).empty());
}

TEST_F(CheckpointScanTest, TruncatedTailCountsOnlyValidRecords) {
  {
    CheckpointStore store(dir_.string(), 0xCCCCu);
    ByteWriter w;
    w.f64(2.5);
    store.append(0, w.bytes());
    store.append(1, w.bytes());
  }
  const auto before = scan_checkpoint_directory(dir_.string());
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(before[0].records, 2u);
  // Chop a few bytes off the second record: the scan must stop at the first
  // broken record, exactly like CheckpointStore's loader.
  fs::resize_file(before[0].path, fs::file_size(before[0].path) - 3);
  const auto after = scan_checkpoint_directory(dir_.string());
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(after[0].readable);
  EXPECT_EQ(after[0].records, 1u);
}

TEST_F(CheckpointScanTest, PresetKeepSetCoversARealSweepStore) {
  // Run a tiny checkpointed preset sweep, then verify the GC keep-set
  // (api::referenced_fingerprints) recognizes the file it wrote -- the
  // property `ethsm checkpoint-stats --prune` relies on to never delete a
  // preset's records.
  api::RunOptions options;
  options.checkpoint.directory = dir_.string();
  const auto result = api::run(api::preset_spec("fig10", true), options);
  ASSERT_TRUE(result.complete());

  const auto files = scan_checkpoint_directory(dir_.string());
  ASSERT_FALSE(files.empty());
  const auto keep = api::referenced_fingerprints();
  for (const auto& file : files) {
    ASSERT_TRUE(file.readable) << file.path;
    bool referenced = false;
    for (const auto& ref : keep) {
      if (ref.fingerprint == file.fingerprint) {
        referenced = true;
        EXPECT_EQ(ref.owner, "fig10 --quick");
      }
    }
    EXPECT_TRUE(referenced) << file.path;
  }
}

// Runs under both `ctest -L checkpoint`-adjacent full suite and the Study*
// label filter (`ctest -L study`): it ties the two layers together.
using StudyGcScanTest = CheckpointScanTest;

TEST_F(StudyGcScanTest, StudyKeepSetCoversItsOwnSweepStore) {
  // A custom (non-preset) study sharing a checkpoint directory: the
  // fingerprints `checkpoint-stats --keep-study` derives from the expansion
  // must cover every file run_study wrote, or --prune would eat the
  // study's records.
  const api::StudySpec study = api::parse_study(
      "study = gc\n"
      "kind = threshold\n"
      "gammas = 0,1\n"
      "tolerance = 1e-2\n"
      "threshold_max_lead = 25\n"
      "variant.byz.rewards = byzantium\n"
      "variant.flat.rewards = flat:0.5\n");
  const auto entries = api::expand_study(study, /*quick=*/false);

  api::RunOptions options;
  options.checkpoint.directory = dir_.string();
  const auto result = api::run_study("gc", "", entries, options);
  ASSERT_TRUE(result.complete());

  std::set<std::uint64_t> keep;
  for (const bool quick : {false, true}) {
    for (const api::StudyEntry& entry : api::expand_study(study, quick)) {
      for (std::uint64_t fp : api::sweep_fingerprints(entry.spec)) {
        keep.insert(fp);
      }
    }
  }
  const auto files = scan_checkpoint_directory(dir_.string());
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    ASSERT_TRUE(file.readable) << file.path;
    EXPECT_TRUE(keep.count(file.fingerprint)) << file.path;
  }
}

}  // namespace
}  // namespace ethsm::support
