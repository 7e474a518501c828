#include "common/version.hpp"

#include <gtest/gtest.h>

#include <ostream>

namespace ipfs::common {
namespace {

TEST(SemVer, ParseRelease) {
  const auto v = SemVer::parse("0.11.0");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->major, 0);
  EXPECT_EQ(v->minor, 11);
  EXPECT_EQ(v->patch, 0);
  EXPECT_TRUE(v->prerelease.empty());
}

TEST(SemVer, ParsePrerelease) {
  const auto v = SemVer::parse("0.13.0-dev");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->prerelease, "dev");
  EXPECT_EQ(v->to_string(), "0.13.0-dev");
}

TEST(SemVer, ParseRejectsMalformed) {
  EXPECT_FALSE(SemVer::parse("").has_value());
  EXPECT_FALSE(SemVer::parse("1").has_value());
  EXPECT_FALSE(SemVer::parse("1.2").has_value());
  EXPECT_FALSE(SemVer::parse("a.b.c").has_value());
  EXPECT_FALSE(SemVer::parse("1.2.x").has_value());
}

TEST(SemVer, OrderingNumeric) {
  EXPECT_LT(*SemVer::parse("0.4.23"), *SemVer::parse("0.5.0"));
  EXPECT_LT(*SemVer::parse("0.9.1"), *SemVer::parse("0.10.0"));
  EXPECT_GT(*SemVer::parse("1.0.0"), *SemVer::parse("0.99.99"));
}

TEST(SemVer, PrereleaseSortsBeforeRelease) {
  EXPECT_LT(*SemVer::parse("0.11.0-dev"), *SemVer::parse("0.11.0"));
  EXPECT_GT(*SemVer::parse("0.11.1-dev"), *SemVer::parse("0.11.0"));
}

TEST(AgentInfo, ParseFullGoIpfs) {
  const auto info = AgentInfo::parse("go-ipfs/0.11.0-dev/0c2f9d5");
  EXPECT_EQ(info.name, "go-ipfs");
  EXPECT_TRUE(info.is_go_ipfs());
  ASSERT_TRUE(info.version.has_value());
  EXPECT_EQ(info.version->minor, 11);
  EXPECT_EQ(info.commit, "0c2f9d5");
  EXPECT_FALSE(info.dirty);
}

TEST(AgentInfo, ParseDirtyBuild) {
  const auto info = AgentInfo::parse("go-ipfs/0.11.0/0c2f9d5-dirty");
  EXPECT_TRUE(info.dirty);
  EXPECT_EQ(info.commit, "0c2f9d5-dirty");
}

TEST(AgentInfo, ParseBareName) {
  const auto info = AgentInfo::parse("storm");
  EXPECT_EQ(info.name, "storm");
  EXPECT_FALSE(info.version.has_value());
  EXPECT_TRUE(info.commit.empty());
}

TEST(AgentInfo, ParseNameVersionOnly) {
  const auto info = AgentInfo::parse("hydra-booster/0.7.4");
  EXPECT_EQ(info.name, "hydra-booster");
  ASSERT_TRUE(info.version.has_value());
  EXPECT_EQ(info.version->to_string(), "0.7.4");
}

TEST(AgentInfo, ParseEmptyVersionPart) {
  const auto info = AgentInfo::parse("go-qkfile/0.9.1/");
  EXPECT_EQ(info.name, "go-qkfile");
  ASSERT_TRUE(info.version.has_value());
  EXPECT_TRUE(info.commit.empty());
}

TEST(VersionChange, UpgradeDetected) {
  const auto before = AgentInfo::parse("go-ipfs/0.10.0/abc");
  const auto after = AgentInfo::parse("go-ipfs/0.11.0/def");
  EXPECT_EQ(classify_version_change(before, after), VersionChangeKind::kUpgrade);
}

TEST(VersionChange, DowngradeDetected) {
  const auto before = AgentInfo::parse("go-ipfs/0.11.0/abc");
  const auto after = AgentInfo::parse("go-ipfs/0.10.0/def");
  EXPECT_EQ(classify_version_change(before, after), VersionChangeKind::kDowngrade);
}

TEST(VersionChange, CommitOnlyChange) {
  const auto before = AgentInfo::parse("go-ipfs/0.11.0/abc");
  const auto after = AgentInfo::parse("go-ipfs/0.11.0/def");
  EXPECT_EQ(classify_version_change(before, after), VersionChangeKind::kChange);
}

TEST(VersionChange, IdenticalIsNone) {
  const auto info = AgentInfo::parse("go-ipfs/0.11.0/abc");
  EXPECT_EQ(classify_version_change(info, info), VersionChangeKind::kNone);
}

TEST(VersionChange, NonGoIpfsIgnored) {
  const auto before = AgentInfo::parse("storm");
  const auto after = AgentInfo::parse("go-ipfs/0.11.0/abc");
  EXPECT_EQ(classify_version_change(before, after), VersionChangeKind::kNone);
}

TEST(VersionChange, DevToReleaseIsUpgrade) {
  const auto before = AgentInfo::parse("go-ipfs/0.11.0-dev/abc");
  const auto after = AgentInfo::parse("go-ipfs/0.11.0/def");
  EXPECT_EQ(classify_version_change(before, after), VersionChangeKind::kUpgrade);
}

struct DirtyCase {
  const char* before;
  const char* after;
  DirtyTransition expected;
};

// Without this gtest prints the case as raw bytes of its pointers, which
// makes the discovered ctest name change with every process's address layout.
void PrintTo(const DirtyCase& c, std::ostream* os) {
  *os << c.before << " to " << c.after;
}

class DirtyTransitionTest : public ::testing::TestWithParam<DirtyCase> {};

TEST_P(DirtyTransitionTest, Classifies) {
  const auto& param = GetParam();
  const auto before = AgentInfo::parse(param.before);
  const auto after = AgentInfo::parse(param.after);
  EXPECT_EQ(classify_dirty_transition(before, after), param.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllQuadrants, DirtyTransitionTest,
    ::testing::Values(
        DirtyCase{"go-ipfs/0.10.0/a", "go-ipfs/0.11.0/b", DirtyTransition::kMainToMain},
        DirtyCase{"go-ipfs/0.10.0/a", "go-ipfs/0.11.0/b-dirty",
                  DirtyTransition::kMainToDirty},
        DirtyCase{"go-ipfs/0.10.0/a-dirty", "go-ipfs/0.11.0/b",
                  DirtyTransition::kDirtyToMain},
        DirtyCase{"go-ipfs/0.10.0/a-dirty", "go-ipfs/0.11.0/b-dirty",
                  DirtyTransition::kDirtyToDirty}));

TEST(VersionStrings, ToStringLabels) {
  EXPECT_EQ(to_string(VersionChangeKind::kUpgrade), "upgrade");
  EXPECT_EQ(to_string(VersionChangeKind::kDowngrade), "downgrade");
  EXPECT_EQ(to_string(VersionChangeKind::kChange), "change");
  EXPECT_EQ(to_string(DirtyTransition::kMainToMain), "main-main");
  EXPECT_EQ(to_string(DirtyTransition::kDirtyToDirty), "dirty-dirty");
}

}  // namespace
}  // namespace ipfs::common
