// Multiaddresses.
//
// The paper's §V-A groups PIDs by the IP part of the connected multiaddress
// to estimate the network size, so the IP component is a first-class value
// here.  We support the address shapes the study observes: /ip4 and /ip6
// with tcp, quic (udp) and websocket transports.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace ipfs::p2p {

/// An IPv4 or IPv6 address value.
class IpAddress {
 public:
  constexpr IpAddress() = default;

  [[nodiscard]] static constexpr IpAddress v4(std::uint32_t be_value) noexcept {
    IpAddress ip;
    ip.is_v6_ = false;
    ip.lo_ = be_value;
    return ip;
  }

  [[nodiscard]] static constexpr IpAddress v6(std::uint64_t hi, std::uint64_t lo) noexcept {
    IpAddress ip;
    ip.is_v6_ = true;
    ip.hi_ = hi;
    ip.lo_ = lo;
    return ip;
  }

  /// Parse dotted-quad IPv4 ("10.0.3.7"); IPv6 accepts the canonical
  /// lower-case hex form without '::' compression (as this library prints).
  [[nodiscard]] static std::optional<IpAddress> parse(std::string_view text);

  [[nodiscard]] constexpr bool is_v6() const noexcept { return is_v6_; }
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] constexpr auto operator<=>(const IpAddress&) const noexcept = default;

  [[nodiscard]] constexpr std::uint64_t hash_value() const noexcept {
    return (hi_ * 0x9e3779b97f4a7c15ULL) ^ lo_ ^ (is_v6_ ? 0x5851f42d4c957f2dULL : 0);
  }

 private:
  bool is_v6_ = false;
  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;  ///< for v4, the 32-bit address in the low word
};

/// Transport part of a multiaddress.
enum class Transport : std::uint8_t { kTcp, kQuic, kWebsocket };

/// A simplified multiaddress: IP + transport + port, e.g.
/// "/ip4/147.28.0.5/tcp/4001" or "/ip4/10.0.0.1/udp/4001/quic".
struct Multiaddr {
  IpAddress ip;
  Transport transport = Transport::kTcp;
  std::uint16_t port = 4001;

  [[nodiscard]] constexpr auto operator<=>(const Multiaddr&) const noexcept = default;
};

}  // namespace ipfs::p2p

template <>
struct std::hash<ipfs::p2p::IpAddress> {
  std::size_t operator()(const ipfs::p2p::IpAddress& ip) const noexcept {
    return static_cast<std::size_t>(ip.hash_value());
  }
};

template <>
struct std::hash<ipfs::p2p::Multiaddr> {
  std::size_t operator()(const ipfs::p2p::Multiaddr& addr) const noexcept {
    return static_cast<std::size_t>(addr.ip.hash_value() ^
                                    (static_cast<std::uint64_t>(addr.port) << 17) ^
                                    static_cast<std::uint64_t>(addr.transport));
  }
};
