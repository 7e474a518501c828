#include "measure/dataset.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <ostream>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/json.hpp"
#include "common/json_schema.hpp"

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

}  // namespace

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
  const auto [it, inserted] =
      body.index.try_emplace(pid, static_cast<PeerIndex>(body.peers.size()));
  const PeerIndex index = it->second;
  if (!inserted) {
    touch(index, now);
    return index;
  }
  PeerRecord record;
  record.pid = pid;
  record.first_seen = now;
  record.last_seen = now;
  body.peers.push_back(std::move(record));
  by_peer_cache_.lists.clear();
  return index;
}

void Dataset::touch(PeerIndex index, SimTime now) {
  PeerRecord& record = mutable_body().peers[index];
  record.last_seen = std::max(record.last_seen, now);
}

void Dataset::add_connection(ConnRecord record) {
  mutable_body().connections.push_back(record);
  by_peer_cache_.lists.clear();
}

void Dataset::add_agent(PeerIndex peer, SimTime at, std::string_view name) {
  Body& body = mutable_body();
  body.peers[peer].agent_history.push_back({at, body.agents.intern(name)});
}

ProtocolId Dataset::intern_protocol(std::string_view name) {
  return mutable_body().protocols.intern(name);
}

void Dataset::add_protocol_event(PeerIndex peer, SimTime at, ProtocolId protocol,
                                 bool added) {
  PeerRecord& record = mutable_body().peers[peer];
  record.protocol_events.push_back({at, protocol, added});
  if (added) insert_sorted(record.protocols_ever, protocol);
}

void Dataset::add_connected_ip(PeerIndex peer, const p2p::IpAddress& ip) {
  Body& body = mutable_body();
  std::vector<IpId>& ids = body.peers[peer].connected_ips;
  // A peer mostly reconnects from an address it used before, and its own
  // list is a few ids: scan it before hashing into the dataset's table.
  if (std::ranges::any_of(ids, [&](IpId id) { return body.ips[id] == ip; })) return;
  insert_sorted(ids, body.intern_ip(ip));
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
  const auto remap_names = [](common::InternedNames& ours,
                               const common::InternedNames& theirs) {
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

// ---- the dataset document ---------------------------------------------------
//
// One field list per record (DESIGN.md §8) both writes the document and
// reads it back, so the two cannot drift apart.  Peers stream through one
// staging record, `PeerDoc`, reused for every peer so its lists keep their
// capacity; connections are read and written as `ConnRecord`s directly.

namespace {

using namespace common::json_schema;
using common::JsonValue;
using common::JsonWriter;

struct AgentDoc {
  SimTime at = 0;
  std::string_view agent;
};

/// One peer as the document spells it.  The strings are views: into the
/// dataset's tables while writing, into the parsed document while reading.
/// The writer lists protocols and IPs in value order, as the std::set
/// fields their ids replaced did, whatever order the dataset saw them in.
struct PeerDoc {
  std::string_view pid;
  SimTime first_seen = 0;
  SimTime last_seen = 0;
  bool ever_dht_server = false;
  std::vector<AgentDoc> agents;
  std::vector<std::string_view> protocols_ever;
  std::vector<p2p::IpAddress> connected_ips;
};

constexpr Field<AgentDoc> kAgentFields[] = {
    {"at_ms", &AgentDoc::at, kRequired},
    {"agent", &AgentDoc::agent, kRequired},
};

constexpr Custom<PeerDoc> kConnectedIps{
    [](const JsonValue& value, const std::string& path, PeerDoc& out) -> ParseError {
      if (!value.is_array()) return path + ": expected an array";
      for (std::size_t i = 0; i < value.as_array().size(); ++i) {
        const JsonValue& element = value.as_array()[i];
        const auto ip = element.is_string() ? p2p::IpAddress::parse(element.as_string())
                                            : std::nullopt;
        if (!ip) return path + "[" + std::to_string(i) + "]: expected an IP address";
        out.connected_ips.push_back(*ip);
      }
      return std::nullopt;
    },
    [](JsonWriter& writer, std::string_view key, const PeerDoc& in) {
      writer.key(key);
      writer.begin_array();
      for (const p2p::IpAddress& ip : in.connected_ips) writer.value(ip.to_string());
      writer.end_array();
    }};

constexpr Field<PeerDoc> kPeerFields[] = {
    {"pid", &PeerDoc::pid, kRequired},
    {"first_seen_ms", &PeerDoc::first_seen, kRequired},
    {"last_seen_ms", &PeerDoc::last_seen, kRequired},
    {"ever_dht_server", &PeerDoc::ever_dht_server},
    {"agents", object_array<&PeerDoc::agents, kAgentFields>()},
    {"protocols_ever", scalar_array<&PeerDoc::protocols_ever>()},
    {"connected_ips", kConnectedIps},
};

/// A connection's direction or close reason, by its p2p::to_string name;
/// `kNames` lists the names for the error.
template <auto kMember, auto kFromString, const char* kNames>
constexpr Custom<ConnRecord> kNamed{
    [](const JsonValue& value, const std::string& path, ConnRecord& out) -> ParseError {
      std::string_view name;
      if (auto error = read(value, path, name)) return error;
      const auto parsed = kFromString(name);
      if (!parsed) return path + ": expected " + kNames;
      out.*kMember = *parsed;
      return std::nullopt;
    },
    [](JsonWriter& writer, std::string_view key, const ConnRecord& in) {
      writer.field(key, p2p::to_string(in.*kMember));
    }};

constexpr char kDirections[] = R"("inbound" or "outbound")";
constexpr char kReasons[] =
    R"("none", "local-trim", "remote-trim", "remote-close", "local-close", )"
    R"("peer-offline", "error" or "measurement-end")";

constexpr Field<ConnRecord> kConnectionFields[] = {
    {"peer", &ConnRecord::peer, kRequired},
    {"opened_ms", &ConnRecord::opened, kRequired},
    {"closed_ms", &ConnRecord::closed, kRequired},
    {"direction", kNamed<&ConnRecord::direction, p2p::direction_from_string, kDirections>},
    {"reason", kNamed<&ConnRecord::reason, p2p::close_reason_from_string, kReasons>},
};

/// A name table's ids in the order of their names, and each id's position
/// in that order: the export sorts a peer's ids by position.
struct NameOrder {
  std::vector<std::uint32_t> order;  ///< position -> id
  std::vector<std::uint32_t> rank;   ///< id -> position

  explicit NameOrder(const common::InternedNames& names)
      : order(names.size()), rank(names.size()) {
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&names](std::uint32_t a, std::uint32_t b) {
      return names.name(a) < names.name(b);
    });
    for (std::uint32_t position = 0; position < order.size(); ++position) {
      rank[order[position]] = position;
    }
  }
};

}  // namespace

struct Dataset::Schema {
  static ParseError read_peers(const JsonValue& value, const std::string& path,
                               Dataset& out) {
    if (!value.is_array()) return path + ": expected an array";
    const JsonValue::Array& peers = value.as_array();
    Body& body = out.mutable_body();
    body.peers.reserve(peers.size());
    std::unordered_map<std::string_view, std::size_t> first_with_pid;
    PeerDoc doc;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const std::string at = path + "[" + std::to_string(i) + "]";
      doc.agents.clear();
      doc.protocols_ever.clear();
      doc.connected_ips.clear();
      if (auto error = read_record<PeerDoc>(peers[i], at, kPeerFields, doc)) return error;
      if (doc.last_seen < doc.first_seen) {
        return at + ".last_seen_ms: must be >= first_seen_ms";
      }
      if (const auto [first, inserted] = first_with_pid.try_emplace(doc.pid, i);
          !inserted) {
        return at + ".pid: repeats " + path + "[" + std::to_string(first->second) + "]";
      }
      // PeerIds are opaque hashes, not parseable strings: peer i gets a
      // synthetic one.
      PeerRecord& record = body.peers[out.intern(p2p::PeerId::from_seed(i), doc.first_seen)];
      record.last_seen = doc.last_seen;
      record.ever_dht_server = doc.ever_dht_server;
      for (const AgentDoc& agent : doc.agents) {
        record.agent_history.push_back({agent.at, body.agents.intern(agent.agent)});
      }
      for (const std::string_view protocol : doc.protocols_ever) {
        insert_sorted(record.protocols_ever, body.protocols.intern(protocol));
      }
      for (const p2p::IpAddress& ip : doc.connected_ips) {
        insert_sorted(record.connected_ips, body.intern_ip(ip));
      }
    }
    return std::nullopt;
  }

  static void write_peers(JsonWriter& writer, std::string_view key, const Dataset& in) {
    const Body& body = in.body();
    const NameOrder protocol_order(body.protocols);
    std::vector<std::uint32_t> positions;
    std::string pid;
    PeerDoc doc;
    writer.key(key);
    writer.begin_array();
    for (const PeerRecord& peer : body.peers) {
      pid = peer.pid.to_string();
      doc.pid = pid;
      doc.first_seen = peer.first_seen;
      doc.last_seen = peer.last_seen;
      doc.ever_dht_server = peer.ever_dht_server;
      doc.agents.clear();
      for (const AgentEvent& event : peer.agent_history) {
        doc.agents.push_back({event.at, body.agents.name(event.agent)});
      }
      positions.clear();
      for (const ProtocolId id : peer.protocols_ever) {
        positions.push_back(protocol_order.rank[id]);
      }
      std::sort(positions.begin(), positions.end());
      doc.protocols_ever.clear();
      for (const std::uint32_t position : positions) {
        doc.protocols_ever.push_back(body.protocols.name(protocol_order.order[position]));
      }
      doc.connected_ips.clear();
      for (const IpId id : peer.connected_ips) doc.connected_ips.push_back(body.ips[id]);
      std::sort(doc.connected_ips.begin(), doc.connected_ips.end());
      write_record<PeerDoc>(writer, kPeerFields, doc);
    }
    writer.end_array();
  }

  static ParseError read_connections(const JsonValue& value, const std::string& path,
                                     Dataset& out) {
    std::vector<ConnRecord>& connections = out.mutable_body().connections;
    if (auto error = read_array<kConnectionFields>(value, path, connections)) {
      return error;
    }
    for (std::size_t i = 0; i < connections.size(); ++i) {
      const ConnRecord& connection = connections[i];
      if (connection.peer >= out.peer_count()) {
        return path + "[" + std::to_string(i) + "].peer: index out of range";
      }
      if (connection.closed < connection.opened) {
        return path + "[" + std::to_string(i) + "].closed_ms: must be >= opened_ms";
      }
    }
    return std::nullopt;
  }

  static void write_connections(JsonWriter& writer, std::string_view key,
                                const Dataset& in) {
    writer.key(key);
    write_array<kConnectionFields>(writer, in.body().connections);
  }

  /// Read in list order, so `peers` is complete before `connections` is
  /// checked against it.  `connections` comes last, for export_json's
  /// form without it.
  static constexpr Field<Dataset> kFields[] = {
      {"vantage", &Dataset::vantage, kRequired},
      {"measurement_start_ms", &Dataset::measurement_start, kRequired},
      {"measurement_end_ms", &Dataset::measurement_end, kRequired},
      {"peers", Custom<Dataset>{read_peers, write_peers}, kRequired},
      {"connections", Custom<Dataset>{read_connections, write_connections}},
  };
};

void Dataset::export_json(std::ostream& out, bool include_connections,
                          bool pretty) const {
  const std::span<const Field<Dataset>> fields = Schema::kFields;
  common::JsonWriter writer(out, pretty);
  write_record<Dataset>(
      writer, include_connections ? fields : fields.first(fields.size() - 1), *this);
  out << '\n';
}

std::expected<Dataset, std::string> read_dataset(std::string_view text) {
  const auto parsed = JsonValue::parse_first(text);
  if (!parsed) return std::unexpected("trace: " + parsed.error());
  Dataset dataset;
  if (auto error =
          read_document<Dataset>(*parsed, "trace", Dataset::Schema::kFields, dataset)) {
    return std::unexpected(std::move(*error));
  }
  if (dataset.measurement_end < dataset.measurement_start) {
    return std::unexpected("measurement_end_ms: must be >= measurement_start_ms");
  }
  if (dataset.peer_count() == 0) {
    return std::unexpected("peers: dataset is empty — nothing to calibrate");
  }
  if (parsed->find("connections") == nullptr) {
    // Peer records only (the JsonExportSink default): presence
    // approximated by one connection per peer spanning first..last seen.
    for (PeerIndex i = 0; i < dataset.peer_count(); ++i) {
      const PeerRecord& peer = std::as_const(dataset).record(i);
      const ConnRecord span{.peer = i, .opened = peer.first_seen, .closed = peer.last_seen};
      dataset.add_connection(span);
    }
  }
  return dataset;
}

}  // namespace ipfs::measure
