// Per-test scratch directories for the suites that touch the filesystem.
//
// ctest runs the same test case in several processes at once (ethsm_tests
// plus the labelled filter entries), so a directory name must be unique
// across processes as well as within one: temp_dir() combines the pid, the
// running test's full name, the caller's tag and a per-process counter.
// temp_path() hands out such a name without creating it (for code under test
// that must create its own directory, or must cope with one that is missing);
// temp_dir() creates it. Every path handed out is removed when the test that
// asked for it ends, whether the test passed or failed.

#ifndef ETHSM_TESTS_SUPPORT_TEMP_DIR_H
#define ETHSM_TESTS_SUPPORT_TEMP_DIR_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ethsm::testutil {

namespace detail {

/// Removes the directories handed out during a test when that test ends.
class TempDirJanitor : public ::testing::EmptyTestEventListener {
 public:
  void track(const std::filesystem::path& dir) {
    const std::lock_guard<std::mutex> lock(mutex_);
    dirs_.push_back(dir);
  }

  void OnTestEnd(const ::testing::TestInfo& /*info*/) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& dir : dirs_) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
    dirs_.clear();
  }

 private:
  std::mutex mutex_;
  std::vector<std::filesystem::path> dirs_;
};

/// Installed before main() runs; gtest owns (and deletes) the listener.
inline TempDirJanitor* const janitor = [] {
  auto* listener = new TempDirJanitor;
  ::testing::UnitTest::GetInstance()->listeners().Append(listener);
  return listener;
}();

}  // namespace detail

/// A fresh path under the gtest temp root, named
/// ethsm_<pid>_<Suite_Test>_<tag>_<n>. Nothing exists there yet; whatever the
/// test puts there is removed at the end of the current test.
inline std::string temp_path(std::string_view tag) {
  static std::atomic<int> counter{0};
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "ethsm_" + std::to_string(::getpid()) + "_";
  if (test != nullptr) {
    name += std::string(test->test_suite_name()) + "_" + test->name() + "_";
  }
  name += std::string(tag) + "_" + std::to_string(counter++);
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  detail::janitor->track(dir);
  return dir.string();
}

/// Like temp_path(), but the directory is created, empty.
inline std::string temp_dir(std::string_view tag) {
  std::string dir = temp_path(tag);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace ethsm::testutil

#endif  // ETHSM_TESTS_SUPPORT_TEMP_DIR_H
