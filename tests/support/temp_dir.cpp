#include "support/temp_dir.h"

#include <unistd.h>

#include <filesystem>
#include <system_error>

#include <gtest/gtest.h>

namespace hotspot::testutil {
namespace {

namespace fs = std::filesystem;

// Fixed at first use: a forked death-test child keeps its parent's
// directory, so paths built before the fork still resolve inside it.
const fs::path& process_dir() {
  static const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("hotspot_test." + std::to_string(::getpid()));
  return dir;
}

std::string test_dir_name(const ::testing::TestInfo& info) {
  std::string name =
      std::string(info.test_suite_name()) + "." + info.name();
  for (char& ch : name) {
    if (ch == '/') {  // parameterized suites and tests
      ch = '_';
    }
  }
  return name;
}

class TempDirCleanup : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    std::error_code ignored;
    fs::remove_all(process_dir() / test_dir_name(info), ignored);
  }
  void OnTestProgramEnd(const ::testing::UnitTest&) override {
    std::error_code ignored;
    fs::remove_all(process_dir(), ignored);
  }
};

// Registered before main: gtest_main's RUN_ALL_TESTS keeps listeners
// appended ahead of it, and the UnitTest singleton takes ownership.
const bool kCleanupRegistered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new TempDirCleanup);
  return true;
}();

}  // namespace

std::string temp_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir =
      info != nullptr ? process_dir() / test_dir_name(*info) : process_dir();
  fs::create_directories(dir);
  return dir.string();
}

std::string temp_path(const std::string& name) {
  return temp_dir() + "/" + name;
}

}  // namespace hotspot::testutil
