#include "net/network.hpp"

#include <utility>

namespace ipfs::net {

Network::Network(sim::Simulation& simulation, common::Rng rng,
                 ConditionModel conditions)
    : simulation_(simulation), rng_(rng), conditions_(std::move(conditions)) {}

Network::~Network() {
  // order-free: each host detaches its own tap.
  for (auto& [id, host] : hosts_) {
    host->swarm().remove_observer(taps_[id].get());
  }
}

void Network::add_host(Host& host) {
  const p2p::PeerId id = host.swarm().local_id();
  hosts_[id] = &host;
  auto tap = std::make_unique<SwarmTap>();
  tap->network = this;
  tap->local = id;
  host.swarm().add_observer(tap.get());
  taps_[id] = std::move(tap);
}

void Network::remove_host(const p2p::PeerId& id) {
  const auto it = hosts_.find(id);
  if (it == hosts_.end()) return;
  Host* host = it->second;
  // Departing node: close all its connections; remotes see kPeerOffline.
  host->swarm().close_all(p2p::CloseReason::kPeerOffline);
  host->swarm().remove_observer(taps_[id].get());
  taps_.erase(id);
  hosts_.erase(id);  // by key: the closes' observers may have moved entries
}

common::SimDuration Network::latency(const p2p::PeerId& a, const p2p::PeerId& b) {
  return conditions_.one_way(a, b, simulation_.now(), rng_);
}

void Network::dial(const p2p::PeerId& from, const p2p::PeerId& to,
                   std::function<void(bool)> on_done) {
  const auto rtt = 2 * latency(from, to);
  // The condition verdict is taken at attempt time (a dial launched into
  // an outage fails even if the window closes mid-flight); it is a pure
  // hash, so the jitter RNG stream is untouched by any veto.
  const bool admitted = conditions_.dial_allowed(from, to, simulation_.now());
  simulation_.schedule_after(rtt, [this, from, to, admitted,
                                   on_done = std::move(on_done)] {
    const auto from_it = hosts_.find(from);
    const auto to_it = hosts_.find(to);
    bool success = admitted && from_it != hosts_.end() && to_it != hosts_.end() &&
                   !connected(from, to) && to_it->second->accept_inbound(from);
    if (success) {
      p2p::Swarm& dialer = from_it->second->swarm();
      p2p::Swarm& listener = to_it->second->swarm();
      // Register the link before the swarms fire their open observers, so
      // protocol handlers (identify!) can already send() over it.
      links_.insert(make_key(from, to));
      dialer.open_connection(to, listener.listen_address(), p2p::Direction::kOutbound);
      listener.open_connection(from, dialer.listen_address(), p2p::Direction::kInbound);
    }
    if (on_done) on_done(success);
  });
}

bool Network::connected(const p2p::PeerId& a, const p2p::PeerId& b) const {
  return links_.contains(make_key(a, b));
}

void Network::send(const p2p::PeerId& from, const p2p::PeerId& to, Message message) {
  if (!connected(from, to)) return;
  // Loss verdict before the latency sample: lost messages consume no
  // jitter draw, and a default model never loses anything.  Outages and
  // partitions drop in-flight traffic too, not just new dials.
  if (!conditions_.path_open(from, to, simulation_.now()) ||
      conditions_.message_lost(from, to, simulation_.now())) {
    return;
  }
  simulation_.schedule_after(
      latency(from, to), [this, from, to, message = std::move(message)] {
        const auto it = hosts_.find(to);
        // Deliver only if the pair is still connected on arrival.
        if (it == hosts_.end() || !connected(from, to)) return;
        it->second->handle_message(from, message);
      });
}

void Network::disconnect(const p2p::PeerId& initiator, const p2p::PeerId& other,
                         p2p::CloseReason reason) {
  const auto it = hosts_.find(initiator);
  if (it == hosts_.end()) return;
  // Closing our side triggers the tap, which mirrors to the counterpart.
  it->second->swarm().close_peer(other, reason);
}

void Network::SwarmTap::on_connection_opened(const p2p::Connection& connection) {
  (void)connection;  // opens are driven by Network::dial; nothing to mirror
}

void Network::SwarmTap::on_connection_closed(const p2p::Connection& connection) {
  network->handle_local_close(local, connection);
}

void Network::handle_local_close(const p2p::PeerId& local,
                                 const p2p::Connection& connection) {
  if (mirroring_) return;  // this close *is* the mirror of a remote close
  const auto key = make_key(local, connection.remote);
  const auto it = links_.find(key);
  if (it == links_.end()) return;
  links_.erase(it);

  // The counterpart experiences the close with the remote-attributed reason.
  p2p::CloseReason mirrored;
  switch (connection.reason) {
    case p2p::CloseReason::kLocalTrim: mirrored = p2p::CloseReason::kRemoteTrim; break;
    case p2p::CloseReason::kLocalClose: mirrored = p2p::CloseReason::kRemoteClose; break;
    default: mirrored = connection.reason; break;
  }
  const p2p::PeerId remote = connection.remote;
  const auto delay = latency(local, remote);
  simulation_.schedule_after(delay, [this, remote, local, mirrored] {
    const auto host_it = hosts_.find(remote);
    if (host_it == hosts_.end()) return;
    mirroring_ = true;
    host_it->second->swarm().close_peer(local, mirrored);
    mirroring_ = false;
  });
}

}  // namespace ipfs::net
