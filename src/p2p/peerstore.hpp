// Peerstore: the per-node database of everything known about other peers.
//
// go-ipfs keeps address, protocol and agent-version books; the paper's
// measurement clients poll exactly these books every 30 s (go-ipfs) / 1 min
// (hydra) and log changes with timestamps (§III-A/B).  Observers registered
// here receive those change events synchronously.
//
// Layout (DESIGN.md §7, "Peerstore layout and identify cost"): one flat
// table of entries in first-seen order, indexed by PeerId through an
// open-addressing table, with every protocol name interned once per store.
// A peer's slot in that table is its handle: callers that already hold it
// (a connection carries its remote's) skip the PeerId lookup, and an
// identify hands over a protocol list interned once per distinct set.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.hpp"
#include "common/interned_names.hpp"
#include "common/sim_time.hpp"
#include "p2p/multiaddr.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::p2p {

using common::SimTime;

class PeerstoreObserver;

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

  /// Record the announced agent-version string (identify result) of the
  /// peer in `slot`.
  void set_agent(Slot slot, const std::string& agent, SimTime now);
  void set_agent(const PeerId& peer, const std::string& agent, SimTime now) {
    set_agent(see(peer, now), agent, now);
  }

  /// The ids of `names`, interning the new ones: sorted by name, no
  /// repeats — the list set_protocols takes.  Valid for the store's life,
  /// so a caller that announces the same set again keeps the list.
  [[nodiscard]] std::vector<ProtocolId> intern_protocols(
      std::span<const std::string_view> names);

  /// Replace the announced protocol set of the peer in `slot` with
  /// `protocols`, a list from intern_protocols(); diffs are reported to
  /// observers.
  void set_protocols(Slot slot, std::span<const ProtocolId> protocols, SimTime now);
  /// The same from names (order and repeats in the list do not matter).
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
  /// The entry in `slot`, with last_seen bumped to `now`.
  Entry& seen(Slot slot, SimTime now);
  /// Fill `ids` with the ids of `names`, sorted by name, no repeats.
  void intern_into(std::span<const std::string_view> names, std::vector<ProtocolId>& ids);
  [[nodiscard]] bool name_less(ProtocolId a, ProtocolId b) const {
    return names_.name(a) < names_.name(b);
  }

  std::vector<Entry> entries_;
  common::FlatMap<PeerId, Slot, PeerIdHash> index_;
  /// Interned protocol names; protocol_name() resolves their ids.
  common::InternedNames names_;
  /// The id of /ipfs/kad/1.0.0, once interned.
  std::optional<ProtocolId> kad_;
  /// The name path's interned list and each diff, reused across calls.
  std::vector<ProtocolId> incoming_;
  std::vector<ProtocolId> added_;
  std::vector<ProtocolId> removed_;
  std::vector<PeerstoreObserver*> observers_;
};

/// Receives peerstore mutation events (used by measure::Recorder).  Each
/// event names the peer by its slot as well as its PeerId.
class PeerstoreObserver {
 public:
  using Slot = Peerstore::Slot;
  using ProtocolId = Peerstore::ProtocolId;

  virtual ~PeerstoreObserver() = default;
  virtual void on_peer_added(Slot slot, const PeerId& peer, SimTime now) = 0;
  virtual void on_agent_changed(Slot slot, const PeerId& peer,
                                const std::string& previous,
                                const std::string& current, SimTime now) = 0;
  /// `added` and `removed` are the store's ids in name order;
  /// Peerstore::protocol_name() resolves them.  The spans are valid for the
  /// call only, and the observer must not change protocols from within it.
  virtual void on_protocols_changed(Slot slot, const PeerId& peer,
                                    std::span<const ProtocolId> added,
                                    std::span<const ProtocolId> removed,
                                    SimTime now) = 0;
  virtual void on_address_added(Slot slot, const PeerId& peer,
                                const Multiaddr& address, SimTime now) = 0;
};

}  // namespace ipfs::p2p
