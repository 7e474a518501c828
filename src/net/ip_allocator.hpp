// IP address allocation for simulated peers.
//
// The paper's multiaddress-based size estimator (§V-A) hinges on how PIDs
// map to IP addresses: most peers have a unique public address, but NAT'd
// households, cloud tenants and hydra deployments share addresses, and
// rotating-PID peers produce many PIDs behind one address.  The allocator
// provides unique addresses and named shared pools for those cases.
#pragma once

#include <string>
#include <unordered_map>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "p2p/multiaddr.hpp"

namespace ipfs::net {

/// Deterministic allocator of distinct public-looking addresses.
class IpAllocator {
 public:
  explicit IpAllocator(common::Rng rng) : rng_(rng) {}

  /// A fresh globally-unique public IPv4 address.
  [[nodiscard]] p2p::IpAddress unique_v4();

  /// A fresh globally-unique public IPv6 address.
  [[nodiscard]] p2p::IpAddress unique_v6();

  /// The stable address of a named shared pool ("hydra-dc-3", "nat-17").
  /// First use allocates; later uses return the same address.
  [[nodiscard]] p2p::IpAddress shared_v4(const std::string& pool);

  [[nodiscard]] std::size_t allocated_count() const noexcept { return used_.size(); }

  /// Room for `count` addresses without growing the used set.
  void reserve(std::size_t count) { used_.reserve(count); }

 private:
  common::Rng rng_;
  common::FlatSet<p2p::IpAddress> used_;
  std::unordered_map<std::string, p2p::IpAddress> pools_;
};

/// Convenience: default IPFS swarm listen address on the given IP.
[[nodiscard]] inline p2p::Multiaddr swarm_tcp_addr(p2p::IpAddress ip,
                                                   std::uint16_t port = 4001) {
  return p2p::Multiaddr{ip, p2p::Transport::kTcp, port};
}

}  // namespace ipfs::net
