#include "hydra/hydra_node.hpp"

namespace ipfs::hydra {

HydraNode::HydraNode(sim::Simulation& simulation, net::Network& network,
                     common::Rng rng, p2p::IpAddress ip, HydraConfig config) {
  heads_.reserve(static_cast<std::size_t>(config.head_count));
  for (int i = 0; i < config.head_count; ++i) {
    // Spread head identities evenly across the keyspace: head i gets the
    // prefix i * 2^64 / head_count in its top bits.
    const std::uint64_t prefix =
        config.head_count <= 1
            ? 0
            : static_cast<std::uint64_t>(i) *
                  (~0ULL / static_cast<std::uint64_t>(config.head_count));
    const auto head_id = p2p::PeerId::with_prefix(prefix, 16, rng);

    node::NodeConfig node_config;
    node_config.agent = config.agent;
    node_config.dht_mode = dht::Mode::kServer;
    node_config.conn_manager = config.per_head;
    node_config.trim_enabled = config.trim_enabled;
    node_config.announce_bitswap = false;  // hydra heads serve the DHT only
    node_config.announce_autonat = false;

    const p2p::Multiaddr address{ip, p2p::Transport::kTcp,
                                 static_cast<std::uint16_t>(config.base_port + i)};
    heads_.push_back(std::make_unique<node::GoIpfsNode>(simulation, network, head_id,
                                                        address, node_config));
  }
}

void HydraNode::start() {
  for (auto& head : heads_) head->start();
}

void HydraNode::stop() {
  for (auto& head : heads_) head->stop();
}

void HydraNode::bootstrap(const std::vector<p2p::PeerId>& peers) {
  for (auto& head : heads_) head->bootstrap(peers);
}

void HydraNode::put_record(const dht::RecordKey& key, const p2p::PeerId& provider,
                           common::SimTime now) {
  belly_.put(key, provider, now);
}

std::set<p2p::PeerId> HydraNode::union_known_pids() const {
  std::set<p2p::PeerId> pids;
  for (const auto& head : heads_) {
    for (const auto& entry : head->swarm().peerstore().entries()) {
      pids.insert(entry.pid);
    }
  }
  return pids;
}

std::size_t HydraNode::total_open_connections() const {
  std::size_t total = 0;
  for (const auto& head : heads_) total += head->swarm().open_count();
  return total;
}

}  // namespace ipfs::hydra
