#include "p2p/multiaddr.hpp"

#include <charconv>
#include <cstdio>
#include <vector>

namespace ipfs::p2p {

namespace {

std::vector<std::string_view> split(std::string_view text, char delim) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto end = text.find(delim, start);
    if (end == std::string_view::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

template <typename T>
bool parse_number(std::string_view text, T& out, int base = 10) {
  if (text.empty()) return false;
  const auto result = std::from_chars(text.data(), text.data() + text.size(), out, base);
  return result.ec == std::errc{} && result.ptr == text.data() + text.size();
}

}  // namespace

std::optional<IpAddress> IpAddress::parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) {
    // Canonical uncompressed v6: eight 16-bit hex groups.
    const auto groups = split(text, ':');
    if (groups.size() != 8) return std::nullopt;
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      std::uint16_t group = 0;
      if (!parse_number(groups[i], group, 16)) return std::nullopt;
      if (i < 4) {
        hi = (hi << 16) | group;
      } else {
        lo = (lo << 16) | group;
      }
    }
    return v6(hi, lo);
  }
  const auto octets = split(text, '.');
  if (octets.size() != 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const auto octet_text : octets) {
    std::uint32_t octet = 0;
    if (!parse_number(octet_text, octet) || octet > 255) return std::nullopt;
    value = (value << 8) | octet;
  }
  return v4(value);
}

std::string IpAddress::to_string() const {
  char buffer[64];
  if (!is_v6_) {
    const auto v = static_cast<std::uint32_t>(lo_);
    std::snprintf(buffer, sizeof(buffer), "%u.%u.%u.%u", (v >> 24) & 0xff,
                  (v >> 16) & 0xff, (v >> 8) & 0xff, v & 0xff);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%x:%x:%x:%x:%x:%x:%x:%x",
                  static_cast<unsigned>((hi_ >> 48) & 0xffff),
                  static_cast<unsigned>((hi_ >> 32) & 0xffff),
                  static_cast<unsigned>((hi_ >> 16) & 0xffff),
                  static_cast<unsigned>(hi_ & 0xffff),
                  static_cast<unsigned>((lo_ >> 48) & 0xffff),
                  static_cast<unsigned>((lo_ >> 32) & 0xffff),
                  static_cast<unsigned>((lo_ >> 16) & 0xffff),
                  static_cast<unsigned>(lo_ & 0xffff));
  }
  return buffer;
}

}  // namespace ipfs::p2p
