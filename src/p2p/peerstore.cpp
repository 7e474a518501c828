#include "p2p/peerstore.hpp"

#include <algorithm>

#include "p2p/protocols.hpp"

namespace ipfs::p2p {

Peerstore::Slot Peerstore::see(const PeerId& peer, SimTime now) {
  const auto [it, inserted] =
      index_.try_emplace(peer, static_cast<Slot>(entries_.size()));
  // Copied out: an observer that adds a peer may rehash index_.
  const Slot slot = it->second;
  if (!inserted) {
    Entry& entry = entries_[slot];
    entry.last_seen = std::max(entry.last_seen, now);
    return slot;
  }
  Entry& entry = entries_.emplace_back();
  entry.pid = peer;
  entry.first_seen = now;
  entry.last_seen = now;
  for (PeerstoreObserver* observer : observers_) observer->on_peer_added(peer, now);
  return slot;
}

bool Peerstore::touch(const PeerId& peer, SimTime now) {
  const std::size_t before = entries_.size();
  see(peer, now);
  return entries_.size() != before;
}

Peerstore::Slot Peerstore::connect(const PeerId& peer, const Multiaddr& address,
                                   SimTime now) {
  const Slot slot = see(peer, now);
  std::vector<Multiaddr>& addresses = entries_[slot].addresses;
  const auto at = std::ranges::lower_bound(addresses, address);
  if (at == addresses.end() || *at != address) {
    addresses.insert(at, address);
    for (PeerstoreObserver* observer : observers_) {
      observer->on_address_added(peer, address, now);
    }
  }
  return slot;
}

void Peerstore::add_address(const PeerId& peer, const Multiaddr& address, SimTime now) {
  connect(peer, address, now);
}

void Peerstore::set_agent(const PeerId& peer, const std::string& agent, SimTime now) {
  Entry& entry = entries_[see(peer, now)];
  if (entry.agent == agent) return;
  std::string previous = std::move(entry.agent);
  entry.agent = agent;
  for (PeerstoreObserver* observer : observers_) {
    observer->on_agent_changed(peer, previous, agent, now);
  }
}

void Peerstore::set_protocols(const PeerId& peer,
                              std::span<const std::string_view> protocol_list,
                              SimTime now) {
  const Slot slot = see(peer, now);
  incoming_.clear();
  for (const std::string_view name : protocol_list) {
    incoming_.push_back(names_.intern(name));
  }
  const auto by_name = [this](ProtocolId a, ProtocolId b) { return name_less(a, b); };
  std::ranges::sort(incoming_, by_name);
  incoming_.erase(std::ranges::unique(incoming_).begin(), incoming_.end());

  Entry& entry = entries_[slot];
  if (incoming_ == entry.protocols) return;
  // Both lists are sorted by name, so one merge yields each diff in name
  // order; equal ids are equal names.
  std::vector<std::string_view> added;
  std::vector<std::string_view> removed;
  auto next = incoming_.begin();
  auto prev = entry.protocols.begin();
  while (next != incoming_.end() || prev != entry.protocols.end()) {
    if (prev == entry.protocols.end() ||
        (next != incoming_.end() && name_less(*next, *prev))) {
      added.push_back(protocol_name(*next++));
    } else if (next == incoming_.end() || name_less(*prev, *next)) {
      removed.push_back(protocol_name(*prev++));
    } else {
      ++next;
      ++prev;
    }
  }
  entry.protocols = incoming_;
  const auto kad = names_.find(protocols::kKad);
  if (kad.has_value() &&
      std::ranges::find(entry.protocols, *kad) != entry.protocols.end()) {
    entry.ever_dht_server = true;
  }
  for (PeerstoreObserver* observer : observers_) {
    observer->on_protocols_changed(peer, added, removed, now);
  }
}

const Peerstore::Entry* Peerstore::find(const PeerId& peer) const {
  const auto it = index_.find(peer);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

std::optional<Peerstore::Slot> Peerstore::slot(const PeerId& peer) const {
  const auto it = index_.find(peer);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

bool Peerstore::supports(const PeerId& peer, std::string_view protocol) const {
  const Entry* entry = find(peer);
  const auto id = names_.find(protocol);
  if (entry == nullptr || !id.has_value()) return false;
  return std::ranges::find(entry->protocols, *id) != entry->protocols.end();
}

void Peerstore::remove_observer(PeerstoreObserver* observer) {
  std::erase(observers_, observer);
}

}  // namespace ipfs::p2p
