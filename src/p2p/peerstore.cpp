#include "p2p/peerstore.hpp"

#include <algorithm>
#include <cassert>

#include "p2p/protocols.hpp"

namespace ipfs::p2p {

Peerstore::Slot Peerstore::see(const PeerId& peer, SimTime now) {
  const auto [it, inserted] =
      index_.try_emplace(peer, static_cast<Slot>(entries_.size()));
  // Copied out: an observer that adds a peer may move index_'s entries.
  const Slot slot = it->second;
  if (!inserted) {
    seen(slot, now);
    return slot;
  }
  Entry& entry = entries_.emplace_back();
  entry.pid = peer;
  entry.first_seen = now;
  entry.last_seen = now;
  for (PeerstoreObserver* observer : observers_) observer->on_peer_added(slot, peer, now);
  return slot;
}

Peerstore::Entry& Peerstore::seen(Slot slot, SimTime now) {
  Entry& entry = entries_[slot];
  entry.last_seen = std::max(entry.last_seen, now);
  return entry;
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
      observer->on_address_added(slot, peer, address, now);
    }
  }
  return slot;
}

void Peerstore::add_address(const PeerId& peer, const Multiaddr& address, SimTime now) {
  connect(peer, address, now);
}

void Peerstore::set_agent(Slot slot, const std::string& agent, SimTime now) {
  Entry& entry = seen(slot, now);
  if (entry.agent == agent) return;
  std::string previous = std::move(entry.agent);
  entry.agent = agent;
  const PeerId peer = entry.pid;
  for (PeerstoreObserver* observer : observers_) {
    observer->on_agent_changed(slot, peer, previous, agent, now);
  }
}

void Peerstore::intern_into(std::span<const std::string_view> names,
                            std::vector<ProtocolId>& ids) {
  ids.clear();
  for (const std::string_view name : names) {
    const std::size_t known = names_.size();
    ids.push_back(names_.intern(name));
    if (names_.size() != known && name == protocols::kKad) kad_ = ids.back();
  }
  std::ranges::sort(ids, [this](ProtocolId a, ProtocolId b) { return name_less(a, b); });
  ids.erase(std::ranges::unique(ids).begin(), ids.end());
}

std::vector<Peerstore::ProtocolId> Peerstore::intern_protocols(
    std::span<const std::string_view> names) {
  std::vector<ProtocolId> ids;
  intern_into(names, ids);
  return ids;
}

void Peerstore::set_protocols(const PeerId& peer,
                              std::span<const std::string_view> protocol_list,
                              SimTime now) {
  const Slot slot = see(peer, now);
  intern_into(protocol_list, incoming_);
  set_protocols(slot, incoming_, now);
}

void Peerstore::set_protocols(Slot slot, std::span<const ProtocolId> incoming,
                              SimTime now) {
  // A list from intern_protocols: names strictly increasing.
  assert(std::ranges::adjacent_find(incoming, [this](ProtocolId a, ProtocolId b) {
           return !name_less(a, b);
         }) == incoming.end());
  Entry& entry = seen(slot, now);
  if (std::ranges::equal(incoming, entry.protocols)) return;
  // Both lists are sorted by name, so one merge yields each diff in name
  // order; equal ids are equal names.
  added_.clear();
  removed_.clear();
  auto next = incoming.begin();
  auto prev = entry.protocols.begin();
  while (next != incoming.end() || prev != entry.protocols.end()) {
    if (prev == entry.protocols.end() ||
        (next != incoming.end() && name_less(*next, *prev))) {
      added_.push_back(*next++);
    } else if (next == incoming.end() || name_less(*prev, *next)) {
      removed_.push_back(*prev++);
    } else {
      ++next;
      ++prev;
    }
  }
  entry.protocols.assign(incoming.begin(), incoming.end());
  if (kad_.has_value() && std::ranges::find(entry.protocols, *kad_) != entry.protocols.end()) {
    entry.ever_dht_server = true;
  }
  const PeerId peer = entry.pid;
  for (PeerstoreObserver* observer : observers_) {
    observer->on_protocols_changed(slot, peer, added_, removed_, now);
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
