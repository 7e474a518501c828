#include "measure/dataset.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <ostream>

#include "common/json.hpp"

namespace ipfs::measure {

namespace {

/// Insert `id` into a sorted, de-duplicated id list.
void insert_sorted(std::vector<std::uint32_t>& ids, std::uint32_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) ids.insert(it, id);
}

/// Union `theirs`, translated through `remap`, into the sorted list `ours`.
void union_remapped(std::vector<std::uint32_t>& ours,
                    const std::vector<std::uint32_t>& theirs,
                    const std::vector<std::uint32_t>& remap) {
  for (const std::uint32_t id : theirs) ours.push_back(remap[id]);
  std::sort(ours.begin(), ours.end());
  ours.erase(std::unique(ours.begin(), ours.end()), ours.end());
}

/// One table's ids in the order of their values, and each id's position in
/// that order: the export sorts a peer's ids by position, which lists them
/// as a std::set of the values would.
struct ValueOrder {
  std::vector<std::uint32_t> order;  ///< position -> id
  std::vector<std::uint32_t> rank;   ///< id -> position

  template <typename Less>
  ValueOrder(std::size_t size, Less less) : order(size), rank(size) {
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), less);
    for (std::uint32_t position = 0; position < size; ++position) {
      rank[order[position]] = position;
    }
  }

  /// `ids` as positions in value order, ascending, in `buffer`.
  const std::vector<std::uint32_t>& positions(const std::vector<std::uint32_t>& ids,
                                              std::vector<std::uint32_t>& buffer) const {
    buffer.clear();
    for (const std::uint32_t id : ids) buffer.push_back(rank[id]);
    std::sort(buffer.begin(), buffer.end());
    return buffer;
  }
};

}  // namespace

std::uint32_t Dataset::NameTable::intern(std::string_view name) {
  if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<std::uint32_t> Dataset::NameTable::find(std::string_view name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

IpId Dataset::Body::intern_ip(const p2p::IpAddress& ip) {
  const auto [it, inserted] = ip_ids.try_emplace(ip, static_cast<IpId>(ips.size()));
  if (inserted) ips.push_back(ip);
  return it->second;
}

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

void Dataset::add_agent(PeerIndex peer, SimTime at, std::string_view name) {
  Body& body = mutable_body();
  body.peers[peer].agent_history.push_back({at, body.agents.intern(name)});
}

void Dataset::add_protocol_event(PeerIndex peer, SimTime at, std::string_view name,
                                 bool added) {
  Body& body = mutable_body();
  const ProtocolId id = body.protocols.intern(name);
  PeerRecord& record = body.peers[peer];
  record.protocol_events.push_back({at, id, added});
  if (added) insert_sorted(record.protocols_ever, id);
}

void Dataset::add_connected_ip(PeerIndex peer, const p2p::IpAddress& ip) {
  Body& body = mutable_body();
  insert_sorted(body.peers[peer].connected_ips, body.intern_ip(ip));
}

const std::string& Dataset::current_agent(const PeerRecord& peer) const {
  static const std::string kEmpty;
  return peer.agent_history.empty() ? kEmpty
                                    : agent_name(peer.agent_history.back().agent);
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

  // Translate their table ids into ours before reading any of their ids.
  Body& body = mutable_body();
  const auto remap_names = [](NameTable& ours, const NameTable& theirs) {
    std::vector<std::uint32_t> ids(theirs.size());
    for (std::uint32_t id = 0; id < ids.size(); ++id) {
      ids[id] = ours.intern(theirs.name(id));
    }
    return ids;
  };
  const std::vector<AgentId> agents = remap_names(body.agents, theirs_body.agents);
  const std::vector<ProtocolId> protocols =
      remap_names(body.protocols, theirs_body.protocols);
  std::vector<IpId> ips(theirs_body.ips.size());
  for (IpId id = 0; id < ips.size(); ++id) ips[id] = body.intern_ip(theirs_body.ips[id]);

  std::vector<PeerIndex> remap(theirs_body.peers.size());
  for (std::size_t i = 0; i < theirs_body.peers.size(); ++i) {
    const PeerRecord& theirs = theirs_body.peers[i];
    const PeerIndex mine = intern(theirs.pid, theirs.first_seen);
    remap[i] = mine;
    PeerRecord& ours = body.peers[mine];
    ours.first_seen = std::min(ours.first_seen, theirs.first_seen);
    ours.last_seen = std::max(ours.last_seen, theirs.last_seen);
    ours.ever_dht_server = ours.ever_dht_server || theirs.ever_dht_server;
    for (const AgentEvent& event : theirs.agent_history) {
      ours.agent_history.push_back({event.at, agents[event.agent]});
    }
    std::sort(ours.agent_history.begin(), ours.agent_history.end(),
              [](const AgentEvent& a, const AgentEvent& b) { return a.at < b.at; });
    for (const ProtocolEvent& event : theirs.protocol_events) {
      ours.protocol_events.push_back({event.at, protocols[event.protocol], event.added});
    }
    std::sort(ours.protocol_events.begin(), ours.protocol_events.end(),
              [](const ProtocolEvent& a, const ProtocolEvent& b) { return a.at < b.at; });
    union_remapped(ours.protocols_ever, theirs.protocols_ever, protocols);
    union_remapped(ours.connected_ips, theirs.connected_ips, ips);
  }

  std::vector<ConnRecord>& connections = body.connections;
  connections.reserve(connections.size() + theirs_body.connections.size());
  for (ConnRecord record : theirs_body.connections) {
    record.peer = remap[record.peer];
    connections.push_back(record);
  }
  by_peer_cache_.lists.clear();
}

void Dataset::export_json(std::ostream& out, bool include_connections,
                          bool pretty) const {
  const Body& body = this->body();
  // Names and IPs print in value order, as the std::set fields these ids
  // replaced did, whatever order the dataset first saw them in.
  const ValueOrder protocol_order(
      body.protocols.size(), [&body](ProtocolId a, ProtocolId b) {
        return body.protocols.name(a) < body.protocols.name(b);
      });
  const ValueOrder ip_order(body.ips.size(), [&body](IpId a, IpId b) {
    return body.ips[a] < body.ips[b];
  });
  std::vector<std::uint32_t> buffer;

  common::JsonWriter json(out, pretty);
  json.begin_object();
  json.field("vantage", vantage);
  json.field("measurement_start_ms", measurement_start);
  json.field("measurement_end_ms", measurement_end);
  json.key("peers");
  json.begin_array();
  for (const PeerRecord& peer : body.peers) {
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
      json.field("agent", body.agents.name(event.agent));
      json.end_object();
    }
    json.end_array();
    json.key("protocols_ever");
    json.begin_array();
    for (const std::uint32_t pos :
         protocol_order.positions(peer.protocols_ever, buffer)) {
      json.value(body.protocols.name(protocol_order.order[pos]));
    }
    json.end_array();
    json.key("connected_ips");
    json.begin_array();
    for (const std::uint32_t pos : ip_order.positions(peer.connected_ips, buffer)) {
      json.value(body.ips[ip_order.order[pos]].to_string());
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  if (include_connections) {
    json.key("connections");
    json.begin_array();
    for (const ConnRecord& record : body.connections) {
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
