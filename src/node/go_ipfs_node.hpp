// GoIpfsNode: the go-ipfs reference client model (§III-A).
//
// Composes the substrates exactly as go-ipfs does: a swarm with the
// watermark connection manager, a Kademlia DHT in server or client mode, a
// Bitswap engine, and the identify/ping protocols.  The paper's
// measurement client is this node with instrumentation attached (see
// measure::Recorder); the node itself is a faithful network citizen that
// answers queries, performs refreshes and trims connections.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bitswap/bitswap.hpp"
#include "dht/kad.hpp"
#include "net/network.hpp"
#include "node/identify.hpp"
#include "p2p/protocols.hpp"
#include "p2p/swarm.hpp"
#include "sim/simulation.hpp"

namespace ipfs::node {

/// Static configuration of a node (Table I's knobs and more).
struct NodeConfig {
  std::string agent = "go-ipfs/0.11.0-dev/0c2f9d5";
  dht::Mode dht_mode = dht::Mode::kServer;
  p2p::ConnManagerConfig conn_manager;  ///< LowWater/HighWater/grace
  bool trim_enabled = true;
  /// Protocols beyond the core set (meshsub, relay, autonat are defaults).
  std::vector<std::string> extra_protocols;
  common::SimDuration refresh_interval = 5 * common::kMinute;
  bool announce_autonat = true;
  bool announce_bitswap = true;

  [[nodiscard]] static NodeConfig dht_server(int low_water = 600, int high_water = 900);
  [[nodiscard]] static NodeConfig dht_client();
};

/// The go-ipfs reference client.
class GoIpfsNode : public net::Host, private p2p::SwarmObserver {
 public:
  GoIpfsNode(sim::Simulation& simulation, net::Network& network, p2p::PeerId id,
             p2p::Multiaddr listen_address, NodeConfig config);
  ~GoIpfsNode() override;

  GoIpfsNode(const GoIpfsNode&) = delete;
  GoIpfsNode& operator=(const GoIpfsNode&) = delete;

  /// Register with the network and begin background loops.
  void start();
  /// Deregister (connections close as peer-offline on remotes).
  void stop();

  /// Dial the given peers and run a self-lookup, as go-ipfs does on boot.
  void bootstrap(const std::vector<p2p::PeerId>& peers);

  // net::Host
  [[nodiscard]] Endpoint endpoint() override { return Endpoint::of(swarm_); }
  [[nodiscard]] bool accept_inbound(const p2p::PeerId& from) override;
  void handle_message(const p2p::PeerId& from, const net::Message& message) override;

  [[nodiscard]] p2p::Swarm& swarm() noexcept { return swarm_; }
  [[nodiscard]] const p2p::PeerId& id() const noexcept { return swarm_.local_id(); }
  [[nodiscard]] dht::KadEngine& dht() noexcept { return *kad_; }
  [[nodiscard]] const dht::KadEngine& dht() const noexcept { return *kad_; }
  [[nodiscard]] bitswap::BitswapEngine& bitswap() noexcept { return *bitswap_; }
  [[nodiscard]] const NodeConfig& config() const noexcept { return config_; }

  /// Currently announced protocol list (depends on DHT mode).
  [[nodiscard]] std::vector<std::string> announced_protocols() const;

  [[nodiscard]] const std::string& agent() const noexcept { return config_.agent; }

  /// Change the agent string (client up/downgrade); pushed to all
  /// connected peers via identify push (§IV-B, Table III).
  void set_agent(std::string agent);

  /// Switch DHT server/client role; the changed kad announcement is pushed
  /// (§IV-B: 2'481 peers flapped this 68'396 times).
  void set_dht_mode(dht::Mode mode);

  /// Toggle the autonat announcement (the other flapping protocol).
  void set_autonat(bool announced);

  /// Measure application-level RTT to a connected peer.
  void ping(const p2p::PeerId& peer,
            std::function<void(common::SimDuration)> on_pong);

 private:
  // p2p::SwarmObserver
  void on_connection_opened(const p2p::Connection& connection) override;
  void on_connection_closed(const p2p::Connection& connection) override;

  void send_identify(const p2p::PeerId& to, bool push);
  void push_identify_to_all();
  void handle_identify(const p2p::PeerId& from, const IdentifySnapshot& snapshot);

  sim::Simulation& simulation_;
  net::Network& network_;
  NodeConfig config_;
  p2p::Swarm swarm_;
  std::unique_ptr<dht::KadEngine> kad_;
  std::unique_ptr<bitswap::BitswapEngine> bitswap_;
  sim::TaskId refresh_task_ = sim::kInvalidTask;
  std::uint64_t next_ping_nonce_ = 1;
  std::unordered_map<std::uint64_t,
                     std::pair<common::SimTime, std::function<void(common::SimDuration)>>>
      pending_pings_;
  bool started_ = false;
};

}  // namespace ipfs::node
