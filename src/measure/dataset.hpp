// The passive-measurement dataset (§III-A/B).
//
// Everything the paper analyses comes from two record streams per vantage
// node: (1) connection events — per connection-id: direction, open/close
// timestamps, close attribution — and (2) peerstore observations — per PID:
// agent strings, protocol announcements and multiaddresses, each change
// timestamped.  `Dataset` is the in-memory form of the JSON files the
// paper's clients exported; `analysis::*` consumes it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

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

/// A timestamped agent-version observation.
struct AgentEvent {
  SimTime at = 0;
  std::string agent;
};

/// A timestamped protocol announcement change.
struct ProtocolEvent {
  SimTime at = 0;
  std::string protocol;
  bool added = true;
};

/// Everything recorded about one PID.
struct PeerRecord {
  p2p::PeerId pid;
  SimTime first_seen = 0;
  SimTime last_seen = 0;
  /// Agent strings in observation order; empty if identify never completed
  /// (the paper's "missing" category, 3'059 PIDs).
  std::vector<AgentEvent> agent_history;
  /// Full protocol change log (adds and removals).
  std::vector<ProtocolEvent> protocol_events;
  /// Every protocol ever announced.
  std::set<std::string> protocols_ever;
  /// IPs this PID *connected from* (the §V-A grouping key).
  std::set<p2p::IpAddress> connected_ips;
  bool ever_dht_server = false;

  [[nodiscard]] const std::string& current_agent() const {
    static const std::string kEmpty;
    return agent_history.empty() ? kEmpty : agent_history.back().agent;
  }
};

/// A complete measurement dataset from one vantage (or a merged union).
///
/// Copies share storage: copying a dataset copies a handle to its peer
/// table, PID index and connection list, and the first mutation through
/// either copy clones that storage for the mutating copy alone (DESIGN.md
/// §4).  So a sink can keep a published dataset for the price of a
/// reference count, and copies may be read or mutated on different threads.
/// References returned by the mutable `record()` are invalidated by copying
/// the dataset, as by any other mutation.
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

  /// Export in the spirit of the paper's periodic JSON dumps.
  void export_json(std::ostream& out, bool include_connections = true,
                   bool pretty = true) const;

 private:
  /// The storage copies share.  Written only while one handle owns it.
  struct Body {
    std::vector<PeerRecord> peers;
    std::unordered_map<p2p::PeerId, PeerIndex> index;
    std::vector<ConnRecord> connections;
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

}  // namespace ipfs::measure
