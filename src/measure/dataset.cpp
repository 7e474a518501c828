#include "measure/dataset.hpp"

#include <algorithm>
#include <atomic>
#include <ostream>

#include "common/json.hpp"

namespace ipfs::measure {

const Dataset::Body& Dataset::empty_body() noexcept {
  static const Body kEmpty;
  return kEmpty;
}

Dataset::Body& Dataset::mutable_body() {
  if (!body_ || body_.use_count() > 1) {
    body_ = body_ ? std::make_shared<Body>(*body_) : std::make_shared<Body>();
  } else {
    // Sole owner.  Every other handle's reads of this body came before the
    // release decrement that dropped it; the fence orders them before our
    // writes.  (GCC's ThreadSanitizer does not model fences and says so.)
#if defined(__SANITIZE_THREAD__) && defined(__GNUC__) && __GNUC__ >= 12
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
    std::atomic_thread_fence(std::memory_order_acquire);
#if defined(__SANITIZE_THREAD__) && defined(__GNUC__) && __GNUC__ >= 12
#pragma GCC diagnostic pop
#endif
  }
  return *body_;
}

PeerIndex Dataset::intern(const p2p::PeerId& pid, SimTime now) {
  Body& body = mutable_body();
  const auto it = body.index.find(pid);
  if (it != body.index.end()) {
    PeerRecord& existing = body.peers[it->second];
    existing.last_seen = std::max(existing.last_seen, now);
    return it->second;
  }
  const auto index = static_cast<PeerIndex>(body.peers.size());
  PeerRecord record;
  record.pid = pid;
  record.first_seen = now;
  record.last_seen = now;
  body.peers.push_back(std::move(record));
  body.index.emplace(pid, index);
  by_peer_cache_.lists.clear();
  return index;
}

void Dataset::add_connection(ConnRecord record) {
  mutable_body().connections.push_back(record);
  by_peer_cache_.lists.clear();
}

const PeerRecord* Dataset::find(const p2p::PeerId& pid) const {
  const Body& body = this->body();
  const auto it = body.index.find(pid);
  return it == body.index.end() ? nullptr : &body.peers[it->second];
}

const std::vector<std::vector<std::uint32_t>>& Dataset::connections_by_peer() const {
  const Body& body = this->body();
  std::vector<std::vector<std::uint32_t>>& lists = by_peer_cache_.lists;
  if (lists.size() != body.peers.size() || body.peers.empty()) {
    lists.assign(body.peers.size(), {});
    for (std::uint32_t i = 0; i < body.connections.size(); ++i) {
      lists[body.connections[i].peer].push_back(i);
    }
  }
  return lists;
}

void Dataset::merge(const Dataset& other) {
  // Hold other's body before writing: `other` may be this dataset or a copy
  // of it, and mutable_body() then clones ours away from the body read here.
  const std::shared_ptr<const Body> held = other.body_;
  const Body& theirs_body = held ? *held : empty_body();
  measurement_start = peer_count() == 0 && connection_count() == 0
                          ? other.measurement_start
                          : std::min(measurement_start, other.measurement_start);
  measurement_end = std::max(measurement_end, other.measurement_end);

  std::vector<PeerIndex> remap(theirs_body.peers.size());
  for (std::size_t i = 0; i < theirs_body.peers.size(); ++i) {
    const PeerRecord& theirs = theirs_body.peers[i];
    const PeerIndex mine = intern(theirs.pid, theirs.first_seen);
    remap[i] = mine;
    PeerRecord& ours = mutable_body().peers[mine];
    ours.first_seen = std::min(ours.first_seen, theirs.first_seen);
    ours.last_seen = std::max(ours.last_seen, theirs.last_seen);
    ours.ever_dht_server = ours.ever_dht_server || theirs.ever_dht_server;
    ours.agent_history.insert(ours.agent_history.end(), theirs.agent_history.begin(),
                              theirs.agent_history.end());
    std::sort(ours.agent_history.begin(), ours.agent_history.end(),
              [](const AgentEvent& a, const AgentEvent& b) { return a.at < b.at; });
    ours.protocol_events.insert(ours.protocol_events.end(),
                                theirs.protocol_events.begin(),
                                theirs.protocol_events.end());
    std::sort(ours.protocol_events.begin(), ours.protocol_events.end(),
              [](const ProtocolEvent& a, const ProtocolEvent& b) { return a.at < b.at; });
    ours.protocols_ever.insert(theirs.protocols_ever.begin(),
                               theirs.protocols_ever.end());
    ours.connected_ips.insert(theirs.connected_ips.begin(), theirs.connected_ips.end());
  }

  std::vector<ConnRecord>& connections = mutable_body().connections;
  connections.reserve(connections.size() + theirs_body.connections.size());
  for (ConnRecord record : theirs_body.connections) {
    record.peer = remap[record.peer];
    connections.push_back(record);
  }
  by_peer_cache_.lists.clear();
}

void Dataset::export_json(std::ostream& out, bool include_connections,
                          bool pretty) const {
  common::JsonWriter json(out, pretty);
  json.begin_object();
  json.field("vantage", vantage);
  json.field("measurement_start_ms", measurement_start);
  json.field("measurement_end_ms", measurement_end);
  json.key("peers");
  json.begin_array();
  for (const PeerRecord& peer : peers()) {
    json.begin_object();
    json.field("pid", peer.pid.to_string());
    json.field("first_seen_ms", peer.first_seen);
    json.field("last_seen_ms", peer.last_seen);
    json.field("ever_dht_server", peer.ever_dht_server);
    json.key("agents");
    json.begin_array();
    for (const AgentEvent& event : peer.agent_history) {
      json.begin_object();
      json.field("at_ms", event.at);
      json.field("agent", event.agent);
      json.end_object();
    }
    json.end_array();
    json.key("protocols_ever");
    json.begin_array();
    for (const std::string& protocol : peer.protocols_ever) json.value(protocol);
    json.end_array();
    json.key("connected_ips");
    json.begin_array();
    for (const p2p::IpAddress& ip : peer.connected_ips) json.value(ip.to_string());
    json.end_array();
    json.end_object();
  }
  json.end_array();
  if (include_connections) {
    json.key("connections");
    json.begin_array();
    for (const ConnRecord& record : connections()) {
      json.begin_object();
      json.field("peer", static_cast<std::uint64_t>(record.peer));
      json.field("opened_ms", record.opened);
      json.field("closed_ms", record.closed);
      json.field("direction", p2p::to_string(record.direction));
      json.field("reason", p2p::to_string(record.reason));
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
  out << '\n';
}

}  // namespace ipfs::measure
