#include "p2p/swarm.hpp"

#include <algorithm>

namespace ipfs::p2p {

Swarm::Swarm(sim::Simulation& simulation, PeerId local_id, Multiaddr listen_address,
             Config config)
    : simulation_(simulation),
      local_id_(local_id),
      listen_address_(listen_address),
      config_(config),
      conn_manager_(config.conn_manager) {}

Swarm::~Swarm() { stop(); }

void Swarm::start() {
  if (!config_.trim_enabled || trim_task_ != sim::kInvalidTask) return;
  trim_task_ = simulation_.schedule_every(conn_manager_.config().check_interval,
                                          [this] { trim_now(); });
}

void Swarm::stop() {
  if (trim_task_ != sim::kInvalidTask) {
    simulation_.cancel(trim_task_);
    trim_task_ = sim::kInvalidTask;
  }
}

ConnectionId Swarm::open_connection(const PeerId& remote,
                                    const Multiaddr& remote_address,
                                    Direction direction) {
  Connection connection;
  connection.id = next_connection_id_++;
  connection.remote = remote;
  connection.remote_addr = remote_address;
  connection.direction = direction;
  connection.opened = simulation_.now();
  const ConnectionId id = connection.id;

  const Peerstore::Slot slot =
      peerstore_.connect(remote, remote_address, connection.opened);
  if (slot >= open_per_slot_.size()) open_per_slot_.resize(slot + 1);
  ++open_per_slot_[slot].count;
  open_per_slot_[slot].ids_xor ^= id;

  const auto [it, _] = open_.emplace(id, Open{std::move(connection), slot});
  ++opened_total_;
  for (SwarmObserver* observer : observers_) {
    observer->on_connection_opened(it->second.connection);
  }

  // An immediate trim keeps the table under HighWater even between ticks,
  // matching go-libp2p's trim-on-connect watermark check; trim_now holds
  // the watermark test.
  trim_now();
  return id;
}

bool Swarm::close_connection(ConnectionId id, CloseReason reason) {
  const auto it = open_.find(id);
  if (it == open_.end()) return false;
  Connection connection = std::move(it->second.connection);
  --open_per_slot_[it->second.slot].count;
  open_per_slot_[it->second.slot].ids_xor ^= id;
  open_.erase(it);
  connection.closed = simulation_.now();
  connection.reason = reason;
  notify_closed(connection);
  return true;
}

std::size_t Swarm::close_peer(const PeerId& remote, CloseReason reason) {
  const auto slot = peerstore_.slot(remote);
  const std::size_t count = slot.has_value() ? open_on(*slot) : 0;
  if (count == 0) return 0;
  // The common case, one connection, needs no walk: its id is the slot's XOR.
  if (count == 1) {
    close_connection(open_per_slot_[*slot].ids_xor, reason);
    return 1;
  }
  // The remote's open count, kept per peerstore slot, bounds the walk:
  // stop once every connection to `remote` is collected.  Ids and their
  // order are those of a full walk.
  std::vector<ConnectionId> ids;
  ids.reserve(count);
  // hash-order: ROADMAP item 1 (the close order reaches the observers).
  for (const auto& [id, open] : open_) {
    if (open.slot != *slot) continue;
    ids.push_back(id);
    if (ids.size() == count) break;
  }
  for (const ConnectionId id : ids) close_connection(id, reason);
  return ids.size();
}

void Swarm::close_all(CloseReason reason) {
  std::vector<ConnectionId> ids;
  ids.reserve(open_.size());
  // hash-order: ROADMAP item 1 (the close order reaches the observers).
  for (const auto& [id, _] : open_) ids.push_back(id);
  for (const ConnectionId id : ids) close_connection(id, reason);
}

const Connection* Swarm::find(ConnectionId id) const {
  const auto it = open_.find(id);
  return it == open_.end() ? nullptr : &it->second.connection;
}

bool Swarm::connected_to(const PeerId& remote) const {
  const auto slot = peerstore_.slot(remote);
  return slot.has_value() && open_on(*slot) > 0;
}

std::size_t Swarm::open_on(Peerstore::Slot slot) const {
  return slot < open_per_slot_.size() ? open_per_slot_[slot].count : 0;
}

std::vector<const Connection*> Swarm::open_connections() const {
  std::vector<const Connection*> connections;
  connections.reserve(open_.size());
  // hash-order: ROADMAP item 1 (plan_trim's ties follow this order).
  for (const auto& [_, open] : open_) connections.push_back(&open.connection);
  return connections;
}

void Swarm::remove_observer(SwarmObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

std::size_t Swarm::trim_now() {
  if (!config_.trim_enabled) return 0;
  // The idle tick: at or below HighWater plan_trim returns an empty plan,
  // so return before paying for an O(open) snapshot of the table.
  const int high_water = conn_manager_.config().high_water;
  if (high_water <= 0 || open_.size() <= static_cast<std::size_t>(high_water)) {
    return 0;
  }
  const auto plan = conn_manager_.plan_trim(open_connections(), simulation_.now());
  for (const ConnectionId id : plan) close_connection(id, CloseReason::kLocalTrim);
  return plan.size();
}

void Swarm::notify_closed(const Connection& connection) {
  for (SwarmObserver* observer : observers_) observer->on_connection_closed(connection);
}

}  // namespace ipfs::p2p
