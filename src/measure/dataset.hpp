// The passive-measurement dataset (§III-A/B).
//
// Everything the paper analyses comes from two record streams per vantage
// node: (1) connection events — per connection-id: direction, open/close
// timestamps, close attribution — and (2) peerstore observations — per PID:
// agent strings, protocol announcements and multiaddresses, each change
// timestamped.  `Dataset` is the in-memory form of the JSON files the
// paper's clients exported; `analysis::*` consumes it.  Agents, protocols
// and connected IPs are interned once per dataset, and records hold ids.
#pragma once

#include <cstdint>
#include <expected>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/interned_names.hpp"
#include "common/sim_time.hpp"
#include "p2p/connection.hpp"
#include "p2p/multiaddr.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::measure {

using common::SimDuration;
using common::SimTime;

/// Index of a peer within a dataset.
using PeerIndex = std::uint32_t;

/// One recorded connection (closed, or force-closed at measurement end).
struct ConnRecord {
  PeerIndex peer = 0;
  SimTime opened = 0;
  SimTime closed = 0;
  p2p::Direction direction = p2p::Direction::kInbound;
  p2p::CloseReason reason = p2p::CloseReason::kNone;

  [[nodiscard]] SimDuration duration() const noexcept { return closed - opened; }
};

/// Dense ids into a dataset's intern tables (DESIGN.md §4, "Interned
/// dataset layout"): numbered in first-seen order within one dataset, so
/// an id means nothing outside the dataset that issued it.
using AgentId = std::uint32_t;
using ProtocolId = std::uint32_t;
using IpId = std::uint32_t;

/// A timestamped agent-version observation.
struct AgentEvent {
  SimTime at = 0;
  AgentId agent = 0;
};

/// A timestamped protocol announcement change.
struct ProtocolEvent {
  SimTime at = 0;
  ProtocolId protocol = 0;
  bool added = true;
};

/// Everything recorded about one PID.  Agents, protocols and IPs are ids
/// into the owning dataset's tables; `Dataset::agent_name`,
/// `protocol_name` and `ip` resolve them.
struct PeerRecord {
  p2p::PeerId pid;
  SimTime first_seen = 0;
  SimTime last_seen = 0;
  /// Agents in observation order; empty if identify never completed
  /// (the paper's "missing" category, 3'059 PIDs).
  std::vector<AgentEvent> agent_history;
  /// Full protocol change log (adds and removals).
  std::vector<ProtocolEvent> protocol_events;
  /// Every protocol ever announced: sorted by id, no repeats.
  std::vector<ProtocolId> protocols_ever;
  /// IPs this PID *connected from* (the §V-A grouping key): sorted by id,
  /// no repeats.
  std::vector<IpId> connected_ips;
  bool ever_dht_server = false;
};

/// A complete measurement dataset from one vantage (or a merged union).
///
/// Copies share storage: copying a dataset copies a handle to its peer
/// table, PID index and connection list, and the first mutation through
/// either copy clones that storage for the mutating copy alone (DESIGN.md
/// §4).  So a sink can keep a published dataset for the price of a
/// reference count, and copies may be read or mutated on different threads.
/// References returned by the mutable `record()`, and the names returned by
/// `agent_name` and `protocol_name`, are invalidated by copying the dataset,
/// as by any other mutation.
class Dataset {
 public:
  /// Name shown in tables ("go-ipfs", "Hydra H0", …).
  std::string vantage;
  SimTime measurement_start = 0;
  SimTime measurement_end = 0;

  [[nodiscard]] SimDuration duration() const noexcept {
    return measurement_end - measurement_start;
  }

  /// Find-or-create the record for a PID.
  PeerIndex intern(const p2p::PeerId& pid, SimTime now);
  /// What intern() does to a known peer: bump its last_seen to `now`.
  void touch(PeerIndex index, SimTime now);

  [[nodiscard]] const PeerRecord* find(const p2p::PeerId& pid) const;
  [[nodiscard]] PeerRecord& record(PeerIndex index) {
    return mutable_body().peers[index];
  }
  [[nodiscard]] const PeerRecord& record(PeerIndex index) const {
    return body().peers[index];
  }

  [[nodiscard]] const std::vector<PeerRecord>& peers() const noexcept {
    return body().peers;
  }
  [[nodiscard]] const std::vector<ConnRecord>& connections() const noexcept {
    return body().connections;
  }

  void add_connection(ConnRecord record);

  /// Append an agent observation to the peer's history.
  void add_agent(PeerIndex peer, SimTime at, std::string_view name);
  /// The id of protocol `name`, appending it when new.
  ProtocolId intern_protocol(std::string_view name);
  /// Append a protocol change to the peer's log; an addition also enters
  /// `protocols_ever`.
  void add_protocol_event(PeerIndex peer, SimTime at, ProtocolId protocol, bool added);
  void add_protocol_event(PeerIndex peer, SimTime at, std::string_view name,
                          bool added) {
    add_protocol_event(peer, at, intern_protocol(name), added);
  }
  /// Note an IP the peer connected from.
  void add_connected_ip(PeerIndex peer, const p2p::IpAddress& ip);

  [[nodiscard]] const std::string& agent_name(AgentId id) const {
    return body().agents.name(id);
  }
  [[nodiscard]] const std::string& protocol_name(ProtocolId id) const {
    return body().protocols.name(id);
  }
  [[nodiscard]] const p2p::IpAddress& ip(IpId id) const { return body().ips[id]; }
  [[nodiscard]] std::optional<ProtocolId> find_protocol(std::string_view name) const {
    return body().protocols.find(name);
  }
  /// Table sizes: every id below them is valid, referenced or not.
  [[nodiscard]] std::size_t agent_count() const noexcept {
    return body().agents.size();
  }
  [[nodiscard]] std::size_t protocol_count() const noexcept {
    return body().protocols.size();
  }
  [[nodiscard]] std::size_t ip_count() const noexcept { return body().ips.size(); }

  /// The peer's latest agent, or "" if identify never completed.
  [[nodiscard]] const std::string& current_agent(const PeerRecord& peer) const;

  [[nodiscard]] std::size_t peer_count() const noexcept { return body().peers.size(); }
  [[nodiscard]] std::size_t connection_count() const noexcept {
    return body().connections.size();
  }

  /// Per-peer connection lists (built on demand, cached per copy).
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& connections_by_peer()
      const;

  /// Union-merge another vantage's dataset into this one (the paper reports
  /// the hydra as the union of its heads, §III-C).  Connection records keep
  /// their own timestamps; peer metadata merges field-wise.
  void merge(const Dataset& other);

  /// Export in the spirit of the paper's periodic JSON dumps: the document
  /// `read_dataset` reads back.  Without connections the document ends
  /// after `peers`.
  void export_json(std::ostream& out, bool include_connections = true,
                   bool pretty = true) const;

 private:
  /// The document's field lists (dataset.cpp), one per record.
  struct Schema;
  friend std::expected<Dataset, std::string> read_dataset(std::string_view text);

  /// The storage copies share.  Written only while one handle owns it.
  struct Body {
    std::vector<PeerRecord> peers;
    common::FlatMap<p2p::PeerId, PeerIndex, p2p::PeerIdHash> index;
    std::vector<ConnRecord> connections;
    common::InternedNames agents;
    common::InternedNames protocols;
    std::vector<p2p::IpAddress> ips;
    std::unordered_map<p2p::IpAddress, IpId> ip_ids;

    IpId intern_ip(const p2p::IpAddress& ip);
  };

  /// connections_by_peer()'s lists.  Copying yields an empty cache, so a
  /// copy never duplicates the lists and rebuilds them on first use.
  struct ByPeerCache {
    std::vector<std::vector<std::uint32_t>> lists;

    ByPeerCache() = default;
    ByPeerCache(const ByPeerCache& /*other*/) noexcept {}
    ByPeerCache& operator=(const ByPeerCache& /*other*/) noexcept {
      lists.clear();
      return *this;
    }
    ByPeerCache(ByPeerCache&&) noexcept = default;
    ByPeerCache& operator=(ByPeerCache&&) noexcept = default;
  };

  /// The body, or a static empty one for a default-constructed or
  /// moved-from dataset.
  [[nodiscard]] const Body& body() const noexcept {
    return body_ ? *body_ : empty_body();
  }
  [[nodiscard]] static const Body& empty_body() noexcept;
  /// The body for writing: cloned first unless this handle owns it alone.
  [[nodiscard]] Body& mutable_body();

  std::shared_ptr<Body> body_;
  mutable ByPeerCache by_peer_cache_;
};

/// Read the document `Dataset::export_json` writes, e.g. a measured trace
/// (DESIGN.md §15).  Only the first JSON document of `text` is read, so
/// the sample-stream documents of a JsonExportSink file are ignored.
/// Strict: every fault fails with a field-path error ("peers[3].pid:
/// repeats peers[1]"), and text that is not JSON as "trace: <line:col>: …".
/// Without a `connections` array, each peer gets one connection spanning
/// [first_seen, last_seen]; an empty array stays empty.  PID strings are
/// identity only: peer i gets `PeerId::from_seed(i)`.  Everything else
/// the document holds is kept, so exporting what was read from an export
/// gives its bytes back, PID values aside.
[[nodiscard]] std::expected<Dataset, std::string> read_dataset(std::string_view text);

}  // namespace ipfs::measure
