#include "common/atomic_output.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

namespace ipfs::common {
namespace {

namespace fs = std::filesystem;

/// A fresh directory per test, removed afterwards.
class AtomicOutputTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("atomic_output_" + std::string(info->name()) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string target() const { return (dir_ / "out.json").string(); }

  /// File names in the directory.
  [[nodiscard]] std::set<std::string> listing() const {
    std::set<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      names.insert(entry.path().filename().string());
    }
    return names;
  }

  static std::string read(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  static void write(const std::string& path, const std::string& text) {
    std::ofstream(path, std::ios::binary) << text;
  }

  fs::path dir_;
};

TEST_F(AtomicOutputTest, CommitCreatesTheTarget) {
  {
    AtomicOutput out(target());
    ASSERT_TRUE(out.is_open());
    out.stream() << "complete";
    EXPECT_FALSE(fs::exists(target())) << "nothing at the target before commit";
    EXPECT_EQ(listing().size(), 1u) << "one temporary beside it";
    EXPECT_TRUE(out.commit());
  }
  EXPECT_EQ(read(target()), "complete");
  EXPECT_EQ(listing(), std::set<std::string>{"out.json"});
}

TEST_F(AtomicOutputTest, DestructionWithoutCommitLeavesNoFile) {
  {
    AtomicOutput out(target());
    ASSERT_TRUE(out.is_open());
    out.stream() << "partial";
  }
  EXPECT_TRUE(listing().empty());
}

TEST_F(AtomicOutputTest, PreExistingTargetUntouchedUntilCommit) {
  write(target(), "previous");
  {
    AtomicOutput out(target());
    ASSERT_TRUE(out.is_open());
    out.stream() << "partial";
    out.stream().flush();
    EXPECT_EQ(read(target()), "previous");
  }
  EXPECT_EQ(read(target()), "previous");
  EXPECT_EQ(listing(), std::set<std::string>{"out.json"});

  AtomicOutput out(target());
  out.stream() << "replacement";
  EXPECT_EQ(read(target()), "previous");
  ASSERT_TRUE(out.commit());
  EXPECT_EQ(read(target()), "replacement");
  EXPECT_EQ(listing(), std::set<std::string>{"out.json"});
}

TEST_F(AtomicOutputTest, ReplacementKeepsThePermissions) {
  write(target(), "previous");
  fs::permissions(target(), fs::perms::owner_read | fs::perms::owner_write);
  AtomicOutput out(target());
  out.stream() << "replacement";
  ASSERT_TRUE(out.commit());
  EXPECT_EQ(fs::status(target()).permissions() & fs::perms::all,
            fs::perms::owner_read | fs::perms::owner_write);
}

TEST_F(AtomicOutputTest, MissingDirectoryDoesNotOpen) {
  AtomicOutput out((dir_ / "absent" / "out.json").string());
  EXPECT_FALSE(out.is_open());
  EXPECT_FALSE(out.commit());
  EXPECT_TRUE(listing().empty());
}

TEST_F(AtomicOutputTest, DeviceTargetsAreWrittenDirectly) {
  AtomicOutput sink("/dev/null");
  ASSERT_TRUE(sink.is_open());
  sink.stream() << "discarded";
  EXPECT_TRUE(sink.commit());
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  AtomicOutput full("/dev/full");
  ASSERT_TRUE(full.is_open());
  full.stream() << std::string(1 << 16, 'x');
  EXPECT_FALSE(full.commit()) << "a failed write is reported, not renamed away";
}

TEST_F(AtomicOutputTest, SignalRemovesTheTemporaryAndStillKills) {
  write(target(), "previous");
  for (const int signal_number : {SIGINT, SIGTERM}) {
    // A signal this process ignores stays ignored (a background job's
    // SIGINT); the output then has nothing to clean up on it.
    struct sigaction current {};
    ASSERT_EQ(::sigaction(signal_number, nullptr, &current), 0);
    if (current.sa_handler == SIG_IGN) continue;
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      AtomicOutput out(target());
      out.stream() << "partial";
      out.stream().flush();
      std::raise(signal_number);
      ::_exit(0);  // reached only if the signal did not end the process
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status)) << "the handler re-raises the signal";
    EXPECT_EQ(WTERMSIG(status), signal_number);
    EXPECT_EQ(read(target()), "previous");
    EXPECT_EQ(listing(), std::set<std::string>{"out.json"});
  }
}

}  // namespace
}  // namespace ipfs::common
