// Swarm: a node's live connection table.
//
// The swarm owns every open `Connection` of one node, runs the connection
// manager's trim loop on the simulation clock, and fans connection
// open/close events out to observers (the measurement recorder, the DHT,
// the identify service).  Both the message-level `net::Network` and the
// campaign-scale population driver create connections through this class,
// so instrumentation behaves identically at either fidelity (DESIGN.md §2).
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "p2p/conn_manager.hpp"
#include "p2p/connection.hpp"
#include "p2p/multiaddr.hpp"
#include "p2p/peer_id.hpp"
#include "p2p/peerstore.hpp"
#include "sim/simulation.hpp"

namespace ipfs::p2p {

/// Receives connection lifecycle events from a swarm.
class SwarmObserver {
 public:
  virtual ~SwarmObserver() = default;
  virtual void on_connection_opened(const Connection& connection) = 0;
  /// `connection.closed`/`reason` are set when this fires.
  virtual void on_connection_closed(const Connection& connection) = 0;
};

/// Connection table + trim loop of one node.
class Swarm {
 public:
  struct Config {
    ConnManagerConfig conn_manager;
    /// DHT clients and some special nodes never trim (hydra heads rely on
    /// the shared belly and keep whatever connects).
    bool trim_enabled = true;
  };

  Swarm(sim::Simulation& simulation, PeerId local_id, Multiaddr listen_address,
        Config config);
  ~Swarm();

  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  [[nodiscard]] const PeerId& local_id() const noexcept { return local_id_; }
  [[nodiscard]] const Multiaddr& listen_address() const noexcept {
    return listen_address_;
  }

  /// Begin the background trim loop.  Idempotent.
  void start();
  /// Stop the trim loop (open connections remain).
  void stop();

  /// Record a new connection; fires observers.  Returns the connection id.
  ConnectionId open_connection(const PeerId& remote, const Multiaddr& remote_address,
                               Direction direction);

  /// Close one connection with the given reason; fires observers.
  /// Returns false when the id is unknown or already closed.
  bool close_connection(ConnectionId id, CloseReason reason);

  /// Close every open connection to `remote`; returns how many closed.
  std::size_t close_peer(const PeerId& remote, CloseReason reason);

  /// Close everything (measurement end).
  void close_all(CloseReason reason);

  [[nodiscard]] const Connection* find(ConnectionId id) const;
  [[nodiscard]] bool connected_to(const PeerId& remote) const;
  [[nodiscard]] std::size_t open_count() const noexcept { return open_.size(); }
  [[nodiscard]] std::size_t opened_total() const noexcept { return opened_total_; }

  /// Snapshot of open connections (pointers valid until the next mutation).
  [[nodiscard]] std::vector<const Connection*> open_connections() const;

  [[nodiscard]] Peerstore& peerstore() noexcept { return peerstore_; }
  [[nodiscard]] const Peerstore& peerstore() const noexcept { return peerstore_; }
  [[nodiscard]] ConnManager& conn_manager() noexcept { return conn_manager_; }
  [[nodiscard]] sim::Simulation& simulation() noexcept { return simulation_; }

  void add_observer(SwarmObserver* observer) { observers_.push_back(observer); }
  void remove_observer(SwarmObserver* observer);

  /// Run one trim pass now (also runs periodically once started, and on
  /// every open).  Returns the number of connections trimmed.  At or below
  /// HighWater (or with HighWater <= 0) it returns 0 without snapshotting
  /// the table, so an idle tick costs O(1), not O(open).
  std::size_t trim_now();

 private:
  void notify_closed(const Connection& connection);
  /// Open connections to the peer in `slot`.
  [[nodiscard]] std::size_t open_on(Peerstore::Slot slot) const;

  sim::Simulation& simulation_;
  PeerId local_id_;
  Multiaddr listen_address_;
  Config config_;
  ConnManager conn_manager_;
  Peerstore peerstore_;
  std::unordered_map<ConnectionId, Connection> open_;
  /// A remote's open connections: how many, and the XOR of their ids,
  /// which is the id itself while there is one.
  struct OpenOnSlot {
    std::uint32_t count = 0;
    ConnectionId ids_xor = 0;
  };
  /// Indexed by peerstore slot.
  std::vector<OpenOnSlot> open_per_slot_;
  std::vector<SwarmObserver*> observers_;
  ConnectionId next_connection_id_ = 1;
  std::size_t opened_total_ = 0;
  sim::TaskId trim_task_ = sim::kInvalidTask;
};

}  // namespace ipfs::p2p
