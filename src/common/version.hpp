// Parsing and comparison of libp2p agent-version strings.
//
// The paper (§IV-B, Table III) classifies go-ipfs agent strings such as
//   "go-ipfs/0.11.0-dev/0c2f9d5"            (main version)
//   "go-ipfs/0.11.0-dev/0c2f9d5-dirty"      (dirty version)
// into upgrades / downgrades / commit-only changes, and tracks whether each
// endpoint of a change was a main or a dirty build.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ipfs::common {

/// Semantic version with an optional pre-release tag ("0.11.0-dev").
struct SemVer {
  int major = 0;
  int minor = 0;
  int patch = 0;
  std::string prerelease;  ///< empty for a release version

  /// SemVer ordering: numeric fields first; a pre-release sorts *before*
  /// the corresponding release (0.11.0-dev < 0.11.0).
  [[nodiscard]] std::strong_ordering operator<=>(const SemVer& other) const noexcept;
  [[nodiscard]] bool operator==(const SemVer& other) const noexcept = default;

  [[nodiscard]] std::string to_string() const;

  /// Parse "MAJOR.MINOR.PATCH[-pre]"; returns nullopt on malformed input.
  [[nodiscard]] static std::optional<SemVer> parse(std::string_view text);
};

/// A decomposed agent-version string "name/version/commit".
struct AgentInfo {
  std::string raw;      ///< the full agent string as announced
  std::string name;     ///< e.g. "go-ipfs", "hydra-booster", "storm"
  std::optional<SemVer> version;
  std::string commit;   ///< commit part, may be empty
  bool dirty = false;   ///< commit carries a "-dirty" marker

  [[nodiscard]] bool is_go_ipfs() const noexcept { return name == "go-ipfs"; }

  /// Split an announced agent string on '/'.  Never fails: unparseable
  /// version parts simply leave `version` empty.
  [[nodiscard]] static AgentInfo parse(std::string_view raw);
};

/// Kind of a go-ipfs agent-version change (paper Table III, left column).
enum class VersionChangeKind : std::uint8_t {
  kNone,       ///< identical strings
  kUpgrade,    ///< version number increased
  kDowngrade,  ///< version number decreased
  kChange,     ///< same version number, different commit part
};

/// main/dirty transition of a change (paper Table III, right column).
enum class DirtyTransition : std::uint8_t {
  kMainToMain,
  kMainToDirty,
  kDirtyToMain,
  kDirtyToDirty,
};

/// Classify a change between two parsed agent strings per the paper's
/// definitions.  Returns kNone when either side is not a comparable go-ipfs
/// version or the strings are identical.
[[nodiscard]] VersionChangeKind classify_version_change(const AgentInfo& before,
                                                        const AgentInfo& after) noexcept;

[[nodiscard]] DirtyTransition classify_dirty_transition(const AgentInfo& before,
                                                        const AgentInfo& after) noexcept;

}  // namespace ipfs::common
