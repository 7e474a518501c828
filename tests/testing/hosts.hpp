// Shared host-vs-Network test harness.
//
// Every fabric-level suite used to hand-roll the same minimal `net::Host`
// and — more dangerously — its own member ordering around the Host
// lifetime contract (network.hpp): registered hosts must outlive the
// `Network`, or deregister first, because ~Network detaches its swarm
// taps through the still-alive hosts.  Getting the order wrong aborts the
// whole suite under Debug+ASan (the PR-4 lesson).  `HostNet` bakes the
// correct destruction order in once: hosts are declared before the
// network, so the network is destroyed first.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"

namespace ipfs::testing {

/// Minimal scripted host: records delivered messages and optionally
/// refuses inbound dials.  Its swarm never trims unless `config` says so.
struct ScriptedHost : net::Host {
  ScriptedHost(sim::Simulation& sim, std::uint64_t seed,
               p2p::Swarm::Config config = {p2p::ConnManagerConfig::with_watermarks(0, 0),
                                            false})
      : swarm_(sim, p2p::PeerId::from_seed(seed),
               p2p::Multiaddr{p2p::IpAddress::v4(static_cast<std::uint32_t>(seed)),
                              p2p::Transport::kTcp, 4001},
               config) {}

  p2p::Swarm& swarm() { return swarm_; }
  Endpoint endpoint() override { return Endpoint::of(swarm_); }
  bool accept_inbound(const p2p::PeerId&) override { return accept; }
  void handle_message(const p2p::PeerId& from, const net::Message& message) override {
    received.emplace_back(from, message.protocol);
  }

  [[nodiscard]] const p2p::PeerId& id() { return swarm_.local_id(); }

  p2p::Swarm swarm_;
  bool accept = true;
  std::vector<std::pair<p2p::PeerId, std::string>> received;
};

/// One simulation + `count` scripted hosts (seeds 1..count) + a network,
/// in the contract-correct declaration order, with every host registered.
class HostNet {
 public:
  explicit HostNet(std::size_t count, common::Rng network_rng = common::Rng(1),
                   net::ConditionModel conditions = net::ConditionModel{})
      : network_(sim_, std::move(network_rng), std::move(conditions)) {
    hosts_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      hosts_.push_back(std::make_unique<ScriptedHost>(sim_, i + 1));
      network_.add_host(*hosts_.back());
    }
  }

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] ScriptedHost& host(std::size_t i) { return *hosts_.at(i); }
  [[nodiscard]] const p2p::PeerId& id(std::size_t i) { return host(i).id(); }

 private:
  sim::Simulation sim_;
  // Hosts before the network (the Host lifetime contract): ~Network runs
  // first and detaches its taps through the still-alive hosts.
  std::vector<std::unique_ptr<ScriptedHost>> hosts_;
  net::Network network_;
};

}  // namespace ipfs::testing
