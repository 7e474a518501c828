#include "common/version.hpp"

#include <charconv>

namespace ipfs::common {

namespace {

bool parse_int(std::string_view text, int& out) {
  if (text.empty()) return false;
  const auto result = std::from_chars(text.data(), text.data() + text.size(), out);
  return result.ec == std::errc{} && result.ptr == text.data() + text.size();
}

}  // namespace

std::strong_ordering SemVer::operator<=>(const SemVer& other) const noexcept {
  if (const auto c = major <=> other.major; c != 0) return c;
  if (const auto c = minor <=> other.minor; c != 0) return c;
  if (const auto c = patch <=> other.patch; c != 0) return c;
  // Release (empty prerelease) sorts after any pre-release build.
  if (prerelease.empty() != other.prerelease.empty()) {
    return prerelease.empty() ? std::strong_ordering::greater
                              : std::strong_ordering::less;
  }
  return prerelease <=> other.prerelease;
}

std::string SemVer::to_string() const {
  std::string out = std::to_string(major) + "." + std::to_string(minor) + "." +
                    std::to_string(patch);
  if (!prerelease.empty()) {
    out += "-";
    out += prerelease;
  }
  return out;
}

std::optional<SemVer> SemVer::parse(std::string_view text) {
  SemVer version;
  const auto dash = text.find('-');
  if (dash != std::string_view::npos) {
    version.prerelease = std::string(text.substr(dash + 1));
    text = text.substr(0, dash);
  }
  const auto first_dot = text.find('.');
  if (first_dot == std::string_view::npos) return std::nullopt;
  const auto second_dot = text.find('.', first_dot + 1);
  if (second_dot == std::string_view::npos) return std::nullopt;
  if (!parse_int(text.substr(0, first_dot), version.major)) return std::nullopt;
  if (!parse_int(text.substr(first_dot + 1, second_dot - first_dot - 1), version.minor))
    return std::nullopt;
  if (!parse_int(text.substr(second_dot + 1), version.patch)) return std::nullopt;
  return version;
}

AgentInfo AgentInfo::parse(std::string_view raw) {
  AgentInfo info;
  info.raw = std::string(raw);
  const auto first_slash = raw.find('/');
  if (first_slash == std::string_view::npos) {
    info.name = std::string(raw);
    return info;
  }
  info.name = std::string(raw.substr(0, first_slash));
  auto rest = raw.substr(first_slash + 1);
  const auto second_slash = rest.find('/');
  std::string_view version_part = rest;
  if (second_slash != std::string_view::npos) {
    version_part = rest.substr(0, second_slash);
    info.commit = std::string(rest.substr(second_slash + 1));
  }
  info.version = SemVer::parse(version_part);
  constexpr std::string_view kDirty = "dirty";
  info.dirty = info.commit.size() >= kDirty.size() &&
               std::string_view(info.commit).substr(info.commit.size() - kDirty.size()) ==
                   kDirty;
  return info;
}

VersionChangeKind classify_version_change(const AgentInfo& before,
                                          const AgentInfo& after) noexcept {
  if (before.raw == after.raw) return VersionChangeKind::kNone;
  if (!before.is_go_ipfs() || !after.is_go_ipfs()) return VersionChangeKind::kNone;
  if (!before.version || !after.version) return VersionChangeKind::kNone;
  if (*after.version > *before.version) return VersionChangeKind::kUpgrade;
  if (*after.version < *before.version) return VersionChangeKind::kDowngrade;
  // Same version number: the paper counts a commit-part change as "Change".
  if (before.commit != after.commit) return VersionChangeKind::kChange;
  return VersionChangeKind::kNone;
}

DirtyTransition classify_dirty_transition(const AgentInfo& before,
                                          const AgentInfo& after) noexcept {
  if (before.dirty) {
    return after.dirty ? DirtyTransition::kDirtyToDirty : DirtyTransition::kDirtyToMain;
  }
  return after.dirty ? DirtyTransition::kMainToDirty : DirtyTransition::kMainToMain;
}

}  // namespace ipfs::common
