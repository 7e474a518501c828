#include "node/go_ipfs_node.hpp"

#include <algorithm>

namespace ipfs::node {

namespace proto = p2p::protocols;

NodeConfig NodeConfig::dht_server(int low_water, int high_water) {
  NodeConfig config;
  config.dht_mode = dht::Mode::kServer;
  config.conn_manager = p2p::ConnManagerConfig::with_watermarks(low_water, high_water);
  return config;
}

NodeConfig NodeConfig::dht_client() {
  NodeConfig config;
  config.dht_mode = dht::Mode::kClient;
  return config;
}

GoIpfsNode::GoIpfsNode(sim::Simulation& simulation, net::Network& network,
                       p2p::PeerId id, p2p::Multiaddr listen_address,
                       NodeConfig config)
    : simulation_(simulation),
      network_(network),
      config_(std::move(config)),
      swarm_(simulation, id, listen_address,
             p2p::Swarm::Config{config_.conn_manager, config_.trim_enabled}) {
  kad_ = std::make_unique<dht::KadEngine>(simulation_, network_, id, config_.dht_mode);
  bitswap_ = std::make_unique<bitswap::BitswapEngine>(network_, id);
  swarm_.add_observer(this);
}

GoIpfsNode::~GoIpfsNode() {
  swarm_.remove_observer(this);
  if (started_) stop();
}

void GoIpfsNode::start() {
  if (started_) return;
  started_ = true;
  network_.add_host(*this);
  swarm_.start();
  refresh_task_ = simulation_.schedule_every(config_.refresh_interval,
                                             [this] { kad_->refresh(); });
}

void GoIpfsNode::stop() {
  if (!started_) return;
  started_ = false;
  simulation_.cancel(refresh_task_);
  refresh_task_ = sim::kInvalidTask;
  swarm_.stop();
  network_.remove_host(id());
}

void GoIpfsNode::bootstrap(const std::vector<p2p::PeerId>& peers) {
  for (const p2p::PeerId& peer : peers) {
    network_.dial(id(), peer, [this, peer](bool ok) {
      if (ok) kad_->observe_peer(peer);
    });
  }
  // Self-lookup once the bootstrap dials had a chance to complete.
  simulation_.schedule_after(2 * common::kSecond, [this] { kad_->refresh(); });
}

bool GoIpfsNode::accept_inbound(const p2p::PeerId& from) {
  (void)from;
  return true;  // go-ipfs accepts and lets the connection manager trim later
}

std::vector<std::string> GoIpfsNode::announced_protocols() const {
  std::vector<std::string> protocols{
      std::string(proto::kIdentify), std::string(proto::kIdentifyPush),
      std::string(proto::kPing),     std::string(proto::kRelayV1),
      std::string(proto::kFetch),    std::string(proto::kMeshsub10),
      std::string(proto::kMeshsub11)};
  if (config_.announce_bitswap) {
    protocols.emplace_back(proto::kBitswap100);
    protocols.emplace_back(proto::kBitswap110);
    protocols.emplace_back(proto::kBitswap120);
    protocols.emplace_back(proto::kBitswap);
  }
  if (config_.announce_autonat) protocols.emplace_back(proto::kAutonat);
  if (kad_->is_server()) protocols.emplace_back(proto::kKad);
  for (const std::string& extra : config_.extra_protocols) protocols.push_back(extra);
  std::sort(protocols.begin(), protocols.end());
  protocols.erase(std::unique(protocols.begin(), protocols.end()), protocols.end());
  return protocols;
}

void GoIpfsNode::handle_message(const p2p::PeerId& from, const net::Message& message) {
  if (kad_->handle_message(from, message)) return;
  if (bitswap_->handle_message(from, message)) return;
  if (message.protocol == proto::kIdentify) {
    if (const auto* snapshot = std::any_cast<IdentifySnapshot>(&message.body)) {
      handle_identify(from, *snapshot);
    }
  }
}

void GoIpfsNode::on_connection_opened(const p2p::Connection& connection) {
  // Identify fires right after the connection is up, as in go-libp2p.
  send_identify(connection.remote);
}

void GoIpfsNode::on_connection_closed(const p2p::Connection& connection) {
  (void)connection;
  // go-ipfs keeps routing-table entries past disconnection; eviction
  // happens on query timeout (KadEngine does exactly that).
}

void GoIpfsNode::send_identify(const p2p::PeerId& to) {
  IdentifySnapshot snapshot;
  snapshot.agent = config_.agent;
  snapshot.protocols = announced_protocols();
  snapshot.listen_address = swarm_.listen_address();
  net::Message message;
  message.protocol = proto::kIdentify;
  message.body = std::move(snapshot);
  network_.send(id(), to, std::move(message));
}

void GoIpfsNode::handle_identify(const p2p::PeerId& from,
                                 const IdentifySnapshot& snapshot) {
  const auto now = simulation_.now();
  p2p::Peerstore& store = swarm_.peerstore();
  store.set_agent(from, snapshot.agent, now);
  const std::vector<std::string_view> protocols(snapshot.protocols.begin(),
                                                snapshot.protocols.end());
  store.set_protocols(from, protocols, now);
  store.add_address(from, snapshot.listen_address, now);

  const bool remote_is_server =
      std::find(snapshot.protocols.begin(), snapshot.protocols.end(),
                std::string(proto::kKad)) != snapshot.protocols.end();
  if (remote_is_server) {
    kad_->observe_peer(from);
    // DHT-useful peers survive trims: go-ipfs tags kbucket members and the
    // DHT protects them outright in the connection manager.
    if (kad_->routing_table().contains(from)) {
      swarm_.conn_manager().set_tag(from, 50);
      swarm_.conn_manager().protect(from);
    }
  } else {
    kad_->forget_peer(from);
    swarm_.conn_manager().clear_tag(from);
    swarm_.conn_manager().unprotect(from);
  }
}

}  // namespace ipfs::node
