// A table of strings interned once each, with dense ids in first-seen order.
//
// The strings live in a deque, which never moves its elements, so a
// reference or view handed out stays valid while the table grows, and
// across a move of the table.  A copy holds its own strings, and its index
// is rebuilt over them rather than copied, so it never points into the
// source's storage.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace ipfs::common {

class InternedNames {
 public:
  InternedNames() = default;
  InternedNames(const InternedNames& other) : names_(other.names_) {
    ids_.reserve(names_.size());
    std::uint32_t id = 0;
    for (const std::string& name : names_) ids_.emplace(name, id++);
  }
  InternedNames& operator=(const InternedNames&) = delete;
  InternedNames(InternedNames&&) = default;
  InternedNames& operator=(InternedNames&&) = default;

  /// The id of `name`, appending it when new.
  std::uint32_t intern(std::string_view name) {
    if (const auto id = find(name)) return *id;
    const auto id = static_cast<std::uint32_t>(names_.size());
    ids_.emplace(names_.emplace_back(name), id);
    return id;
  }
  [[nodiscard]] std::optional<std::uint32_t> find(std::string_view name) const {
    const auto it = ids_.find(name);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] const std::string& name(std::uint32_t id) const { return names_[id]; }
  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

 private:
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, std::uint32_t> ids_;
};

}  // namespace ipfs::common
