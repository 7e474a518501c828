// Peerstore: the per-node database of everything known about other peers.
//
// go-ipfs keeps address, protocol and agent-version books; the paper's
// measurement clients poll exactly these books every 30 s (go-ipfs) / 1 min
// (hydra) and log changes with timestamps (§III-A/B).  Observers registered
// here receive those change events synchronously.
//
// Layout (DESIGN.md §7, "Peerstore layout and identify cost"): one flat
// table of entries in first-seen order, indexed by PeerId, with every
// protocol name interned once per store.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interned_names.hpp"
#include "common/sim_time.hpp"
#include "p2p/multiaddr.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::p2p {

using common::SimTime;

/// Receives peerstore mutation events (used by measure::Recorder).
class PeerstoreObserver {
 public:
  virtual ~PeerstoreObserver() = default;
  virtual void on_peer_added(const PeerId& peer, SimTime now) = 0;
  virtual void on_agent_changed(const PeerId& peer, const std::string& previous,
                                const std::string& current, SimTime now) = 0;
  /// `added` and `removed` are in lexicographic order; the views point into
  /// the store's interned names and stay valid as long as the store.
  virtual void on_protocols_changed(const PeerId& peer,
                                    std::span<const std::string_view> added,
                                    std::span<const std::string_view> removed,
                                    SimTime now) = 0;
  virtual void on_address_added(const PeerId& peer, const Multiaddr& address,
                                SimTime now) = 0;
};

/// Address / protocol / agent books for one node.
class Peerstore {
 public:
  /// Position of a peer's entry in `entries()`; stable for the store's life.
  using Slot = std::uint32_t;
  /// A protocol name interned by this store; see protocol_name().
  using ProtocolId = std::uint32_t;

  struct Entry {
    PeerId pid;
    std::string agent;  ///< empty until identify succeeded
    /// Currently announced protocols, as ids sorted by their names.
    std::vector<ProtocolId> protocols;
    /// Every multiaddress ever observed, sorted and de-duplicated.
    std::vector<Multiaddr> addresses;
    SimTime first_seen = 0;
    SimTime last_seen = 0;
    bool ever_dht_server = false;  ///< announced /ipfs/kad/1.0.0 at least once
  };

  /// Ensure an entry exists; returns true when the peer was new.
  bool touch(const PeerId& peer, SimTime now);

  /// touch() then add_address() in one lookup — what a new connection
  /// records.  Returns the peer's slot.
  Slot connect(const PeerId& peer, const Multiaddr& address, SimTime now);

  /// Record the announced agent-version string (identify result).
  void set_agent(const PeerId& peer, const std::string& agent, SimTime now);

  /// Replace the announced protocol set (order and repeats in the list do
  /// not matter); diffs are reported to observers.
  void set_protocols(const PeerId& peer, std::span<const std::string_view> protocols,
                     SimTime now);

  void add_address(const PeerId& peer, const Multiaddr& address, SimTime now);

  /// The peer's entry, or null.  The pointer is valid until the next call
  /// that adds a peer (touch, connect, set_*, add_address on a new pid).
  [[nodiscard]] const Entry* find(const PeerId& peer) const;
  [[nodiscard]] std::optional<Slot> slot(const PeerId& peer) const;
  [[nodiscard]] bool supports(const PeerId& peer, std::string_view protocol) const;
  [[nodiscard]] std::string_view protocol_name(ProtocolId id) const {
    return names_.name(id);
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Every entry, in first-seen order.
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

  void add_observer(PeerstoreObserver* observer) { observers_.push_back(observer); }
  void remove_observer(PeerstoreObserver* observer);

 private:
  /// The peer's slot, created (and announced to observers) when new;
  /// bumps last_seen, as every mutator does.
  Slot see(const PeerId& peer, SimTime now);
  [[nodiscard]] bool name_less(ProtocolId a, ProtocolId b) const {
    return names_.name(a) < names_.name(b);
  }

  std::vector<Entry> entries_;
  std::unordered_map<PeerId, Slot> index_;
  /// Interned protocol names; the observers' views point into them.
  common::InternedNames names_;
  /// set_protocols' sorted, de-duplicated input, reused across calls.
  std::vector<ProtocolId> incoming_;
  std::vector<PeerstoreObserver*> observers_;
};

}  // namespace ipfs::p2p
