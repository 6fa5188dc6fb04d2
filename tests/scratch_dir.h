// A directory for one test's spilled files: made with mkdtemp under
// ::testing::TempDir() (TEST_TMPDIR when set) and removed with everything
// in it when the ScratchDir is destroyed, so a test run leaves nothing
// behind. Fixtures shared across tests hold theirs as a static, so it
// goes at exit.
#ifndef PS3_TESTS_SCRATCH_DIR_H_
#define PS3_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ps3 {

class ScratchDir {
 public:
  /// Makes `<TempDir()><prefix>XXXXXX`; a failed mkdtemp fails the test.
  explicit ScratchDir(const std::string& prefix)
      : path_(::testing::TempDir() + prefix + "XXXXXX") {
    made_ = mkdtemp(path_.data()) != nullptr;
    EXPECT_TRUE(made_) << "mkdtemp failed for " << path_;
  }

  ~ScratchDir() {
    if (!made_) return;
    std::error_code ec;  // best effort: never throw from a destructor
    std::filesystem::remove_all(path_, ec);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

  /// A ScratchDir passes wherever a directory path is expected.
  operator const std::string&() const { return path_; }

 private:
  std::string path_;
  bool made_ = false;
};

}  // namespace ps3

#endif  // PS3_TESTS_SCRATCH_DIR_H_
