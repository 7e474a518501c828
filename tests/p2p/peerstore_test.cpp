#include "p2p/peerstore.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "p2p/protocols.hpp"

namespace ipfs::p2p {
namespace {

/// A protocol list as identify hands it to set_protocols.
using Names = std::vector<std::string_view>;

/// Records a store's events; protocol ids are resolved through `store`.
struct EventLog : PeerstoreObserver {
  explicit EventLog(const Peerstore& observed) : store(&observed) {}

  struct AgentChange {
    PeerId peer;
    std::string previous;
    std::string current;
    common::SimTime at;
  };
  std::vector<PeerId> added_peers;
  std::vector<AgentChange> agent_changes;
  std::vector<std::pair<std::vector<std::string>, std::vector<std::string>>>
      protocol_changes;
  /// The slot each event named, in event order.
  std::vector<Slot> slots;
  std::vector<Multiaddr> addresses;
  const Peerstore* store;

  [[nodiscard]] std::vector<std::string> names(std::span<const ProtocolId> ids) const {
    std::vector<std::string> out;
    for (const ProtocolId id : ids) out.emplace_back(store->protocol_name(id));
    return out;
  }

  void on_peer_added(Slot slot, const PeerId& peer, common::SimTime) override {
    slots.push_back(slot);
    added_peers.push_back(peer);
  }
  void on_agent_changed(Slot slot, const PeerId& peer, const std::string& previous,
                        const std::string& current, common::SimTime at) override {
    slots.push_back(slot);
    agent_changes.push_back({peer, previous, current, at});
  }
  void on_protocols_changed(Slot slot, const PeerId&, std::span<const ProtocolId> added,
                            std::span<const ProtocolId> removed,
                            common::SimTime) override {
    slots.push_back(slot);
    protocol_changes.emplace_back(names(added), names(removed));
  }
  void on_address_added(Slot slot, const PeerId&, const Multiaddr& address,
                        common::SimTime) override {
    slots.push_back(slot);
    addresses.push_back(address);
  }
};

class PeerstoreTest : public ::testing::Test {
 protected:
  PeerstoreTest() { store.add_observer(&log); }
  Peerstore store;
  EventLog log{store};
  PeerId pid = PeerId::from_seed(1);
};

TEST_F(PeerstoreTest, TouchCreatesEntryOnce) {
  EXPECT_TRUE(store.touch(pid, 100));
  EXPECT_FALSE(store.touch(pid, 200));
  EXPECT_EQ(store.size(), 1u);
  ASSERT_EQ(log.added_peers.size(), 1u);
  const auto* entry = store.find(pid);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->first_seen, 100);
  EXPECT_EQ(entry->last_seen, 200);
}

TEST_F(PeerstoreTest, LastSeenNeverDecreases) {
  store.touch(pid, 500);
  store.touch(pid, 100);
  EXPECT_EQ(store.find(pid)->last_seen, 500);
}

TEST_F(PeerstoreTest, SetAgentFiresOnChangeOnly) {
  store.set_agent(pid, "go-ipfs/0.10.0/a", 10);
  store.set_agent(pid, "go-ipfs/0.10.0/a", 20);  // no-op
  store.set_agent(pid, "go-ipfs/0.11.0/b", 30);
  ASSERT_EQ(log.agent_changes.size(), 2u);
  EXPECT_EQ(log.agent_changes[0].previous, "");
  EXPECT_EQ(log.agent_changes[0].current, "go-ipfs/0.10.0/a");
  EXPECT_EQ(log.agent_changes[1].previous, "go-ipfs/0.10.0/a");
  EXPECT_EQ(log.agent_changes[1].current, "go-ipfs/0.11.0/b");
  EXPECT_EQ(log.agent_changes[1].at, 30);
}

TEST_F(PeerstoreTest, SetProtocolsComputesDiff) {
  store.set_protocols(pid, Names{"a", "b"}, 10);
  store.set_protocols(pid, Names{"b", "c"}, 20);
  ASSERT_EQ(log.protocol_changes.size(), 2u);
  EXPECT_EQ(log.protocol_changes[0].first, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(log.protocol_changes[0].second.empty());
  EXPECT_EQ(log.protocol_changes[1].first, (std::vector<std::string>{"c"}));
  EXPECT_EQ(log.protocol_changes[1].second, (std::vector<std::string>{"a"}));

  // Unsorted input with repeats is a set: the diff is in name order and
  // names each protocol once.
  store.set_protocols(pid, Names{"e", "c", "d", "e", "b", "d"}, 30);
  ASSERT_EQ(log.protocol_changes.size(), 3u);
  EXPECT_EQ(log.protocol_changes[2].first, (std::vector<std::string>{"d", "e"}));
  EXPECT_TRUE(log.protocol_changes[2].second.empty());
  const auto* entry = store.find(pid);
  ASSERT_EQ(entry->protocols.size(), 4u);
  EXPECT_EQ(store.protocol_name(entry->protocols.front()), "b");
  EXPECT_EQ(store.protocol_name(entry->protocols.back()), "e");

  // Diffs are in name order whatever order the names were first seen in:
  // a fresh store interns z, b, y, a, c in that order.
  Peerstore fresh;
  EventLog fresh_log(fresh);
  fresh.add_observer(&fresh_log);
  fresh.set_protocols(pid, Names{"z", "b"}, 10);
  fresh.set_protocols(pid, Names{"y", "a", "c"}, 20);
  ASSERT_EQ(fresh_log.protocol_changes.size(), 2u);
  EXPECT_EQ(fresh_log.protocol_changes[0].first, (std::vector<std::string>{"b", "z"}));
  EXPECT_EQ(fresh_log.protocol_changes[1].first,
            (std::vector<std::string>{"a", "c", "y"}));
  EXPECT_EQ(fresh_log.protocol_changes[1].second,
            (std::vector<std::string>{"b", "z"}));
}

TEST_F(PeerstoreTest, SetProtocolsIdenticalIsSilent) {
  store.set_protocols(pid, Names{"a"}, 10);
  store.set_protocols(pid, Names{"a"}, 20);
  EXPECT_EQ(log.protocol_changes.size(), 1u);
  store.set_protocols(pid, Names{"b", "a"}, 30);
  store.set_protocols(pid, Names{"a", "b", "a"}, 40);  // same set, reordered
  EXPECT_EQ(log.protocol_changes.size(), 2u);
  EXPECT_EQ(store.find(pid)->last_seen, 40);
}

TEST_F(PeerstoreTest, KadAnnouncementMarksServerForever) {
  store.set_protocols(pid, Names{protocols::kKad}, 10);
  EXPECT_TRUE(store.find(pid)->ever_dht_server);
  store.set_protocols(pid, {}, 20);  // role switch to client
  EXPECT_TRUE(store.find(pid)->ever_dht_server);
  EXPECT_FALSE(store.supports(pid, protocols::kKad));
}

TEST_F(PeerstoreTest, SupportsChecksCurrentSet) {
  store.set_protocols(pid, Names{protocols::kPing}, 10);
  EXPECT_TRUE(store.supports(pid, protocols::kPing));
  EXPECT_FALSE(store.supports(pid, protocols::kKad));
  EXPECT_FALSE(store.supports(PeerId::from_seed(99), protocols::kPing));
  store.set_protocols(pid, Names{protocols::kKad}, 20);
  EXPECT_FALSE(store.supports(pid, protocols::kPing));
  EXPECT_TRUE(store.supports(pid, protocols::kKad));

  // A moved store keeps its interned names.
  const Peerstore moved = std::move(store);
  EXPECT_TRUE(moved.supports(pid, protocols::kKad));
  EXPECT_EQ(moved.protocol_name(moved.find(pid)->protocols.front()), protocols::kKad);
}

TEST_F(PeerstoreTest, AddressesDeduplicated) {
  const Multiaddr addr{IpAddress::v4(42), Transport::kTcp, 4001};
  store.add_address(pid, addr, 10);
  store.add_address(pid, addr, 20);
  EXPECT_EQ(log.addresses.size(), 1u);
  EXPECT_EQ(store.find(pid)->addresses.size(), 1u);

  const Multiaddr low{IpAddress::v4(7), Transport::kTcp, 4001};
  const Multiaddr high{IpAddress::v4(99), Transport::kQuic, 4001};
  store.connect(pid, high, 30);
  store.add_address(pid, low, 40);
  store.connect(pid, addr, 50);
  store.connect(pid, high, 60);
  store.add_address(pid, low, 70);
  EXPECT_EQ(log.addresses, (std::vector<Multiaddr>{addr, high, low}));
  const auto& addresses = store.find(pid)->addresses;
  EXPECT_EQ(addresses.size(), 3u);
  EXPECT_TRUE(std::is_sorted(addresses.begin(), addresses.end()));
  EXPECT_EQ(std::count(addresses.begin(), addresses.end(), high), 1);
}

TEST_F(PeerstoreTest, ConnectAnnouncesPeerBeforeAddress) {
  struct Order : PeerstoreObserver {
    std::vector<std::string> calls;
    void on_peer_added(Slot, const PeerId&, common::SimTime) override {
      calls.emplace_back("peer");
    }
    void on_agent_changed(Slot, const PeerId&, const std::string&, const std::string&,
                          common::SimTime) override {}
    void on_protocols_changed(Slot, const PeerId&, std::span<const ProtocolId>,
                              std::span<const ProtocolId>, common::SimTime) override {}
    void on_address_added(Slot, const PeerId&, const Multiaddr&,
                          common::SimTime) override {
      calls.emplace_back("address");
    }
  } order;
  store.add_observer(&order);
  const Multiaddr addr{IpAddress::v4(42), Transport::kTcp, 4001};
  const auto slot = store.connect(pid, addr, 10);
  EXPECT_EQ(store.connect(pid, addr, 20), slot);
  EXPECT_EQ(order.calls, (std::vector<std::string>{"peer", "address"}));
  EXPECT_EQ(store.slot(pid), slot);
  EXPECT_EQ(store.find(pid)->last_seen, 20);
}

TEST_F(PeerstoreTest, RemovedObserverReceivesNothing) {
  EventLog other(store);
  store.add_observer(&other);
  store.touch(pid, 10);
  store.remove_observer(&other);
  store.touch(PeerId::from_seed(2), 20);
  store.set_agent(pid, "a", 30);
  store.set_protocols(pid, Names{"x"}, 40);
  store.add_address(pid, Multiaddr{IpAddress::v4(42), Transport::kTcp, 4001}, 50);
  EXPECT_EQ(other.added_peers.size(), 1u);
  EXPECT_TRUE(other.agent_changes.empty());
  EXPECT_TRUE(other.protocol_changes.empty());
  EXPECT_TRUE(other.addresses.empty());
  EXPECT_EQ(log.added_peers.size(), 2u);  // the fixture's log stays attached
}

TEST_F(PeerstoreTest, SlotPathMatchesPeerIdPath) {
  const Multiaddr addr{IpAddress::v4(42), Transport::kTcp, 4001};
  const auto slot = store.connect(pid, addr, 10);
  store.set_agent(slot, "go-ipfs/0.11.0/a", 20);
  store.set_agent(slot, "go-ipfs/0.11.0/a", 25);  // no-op
  const auto kad = store.intern_protocols(Names{protocols::kKad, protocols::kPing});
  store.set_protocols(slot, kad, 30);
  store.set_protocols(slot, kad, 40);  // no-op
  ASSERT_EQ(log.agent_changes.size(), 1u);
  EXPECT_EQ(log.agent_changes[0].peer, pid);
  ASSERT_EQ(log.protocol_changes.size(), 1u);
  EXPECT_EQ(log.protocol_changes[0].first,
            (std::vector<std::string>{std::string(protocols::kKad),
                                      std::string(protocols::kPing)}));
  // peer, address, agent and protocols: every event names the one slot.
  EXPECT_EQ(log.slots, (std::vector<Peerstore::Slot>(4, slot)));
  const auto* entry = store.find(pid);
  EXPECT_EQ(entry->agent, "go-ipfs/0.11.0/a");
  EXPECT_TRUE(entry->ever_dht_server);
  EXPECT_EQ(entry->last_seen, 40);
  EXPECT_TRUE(store.supports(pid, protocols::kPing));
}

TEST_F(PeerstoreTest, InternProtocolsSortsByNameWithoutRepeats) {
  const auto ids = store.intern_protocols(Names{"z", "b", "z", "a"});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(store.protocol_name(ids[0]), "a");
  EXPECT_EQ(store.protocol_name(ids[1]), "b");
  EXPECT_EQ(store.protocol_name(ids[2]), "z");
  // Known names keep their ids.
  EXPECT_EQ(store.intern_protocols(Names{"b"}), (std::vector<Peerstore::ProtocolId>{ids[1]}));
  EXPECT_TRUE(store.intern_protocols({}).empty());
}

TEST_F(PeerstoreTest, ProtocolListMatchesNames) {
  // Differential: 1'000 random announcements over the p2p::protocols
  // constants, unsorted and with repeats, applied to one store by name and
  // to another by slot with a pre-interned list.  Both stores must end
  // with the same entries and must have told their observers the same
  // story, diff for diff.
  const Names pool = {
      protocols::kIdentify,   protocols::kIdentifyPush, protocols::kPing,
      protocols::kKad,        protocols::kLanKad,       protocols::kBitswap,
      protocols::kBitswap100, protocols::kBitswap110,   protocols::kBitswap120,
      protocols::kAutonat,    protocols::kRelayV1,      protocols::kRelayV2Stop,
      protocols::kFetch,      protocols::kFloodsub,     protocols::kMeshsub10,
      protocols::kMeshsub11,  protocols::kDelta,        protocols::kSbptp,
      protocols::kSfst1,      protocols::kSfst2,        protocols::kIoiDial,
      protocols::kIoiPortssub, protocols::kX};
  Peerstore by_name;
  Peerstore by_list;
  EventLog name_log(by_name);
  EventLog list_log(by_list);
  by_name.add_observer(&name_log);
  by_list.add_observer(&list_log);

  common::Rng rng(20211203);
  Names names;
  for (int i = 0; i < 1'000; ++i) {
    const PeerId peer = PeerId::from_seed(1 + rng.uniform_u64(24));
    names.clear();
    for (const std::string_view name : pool) {
      if (rng.bernoulli(0.4)) names.push_back(name);
    }
    if (!names.empty() && rng.bernoulli(0.3)) names.push_back(names.front());
    std::shuffle(names.begin(), names.end(), rng);
    const common::SimTime now = i;
    by_name.set_protocols(peer, names, now);
    by_list.touch(peer, now);
    by_list.set_protocols(*by_list.slot(peer), by_list.intern_protocols(names), now);
  }

  EXPECT_EQ(name_log.added_peers, list_log.added_peers);
  EXPECT_EQ(name_log.slots, list_log.slots);
  ASSERT_EQ(name_log.protocol_changes.size(), list_log.protocol_changes.size());
  for (std::size_t i = 0; i < name_log.protocol_changes.size(); ++i) {
    EXPECT_EQ(name_log.protocol_changes[i], list_log.protocol_changes[i]) << "event " << i;
  }
  EXPECT_GT(name_log.protocol_changes.size(), 900u);  // nearly every draw differs
  ASSERT_EQ(by_name.size(), by_list.size());
  for (std::size_t slot = 0; slot < by_name.size(); ++slot) {
    const auto& a = by_name.entries()[slot];
    const auto& b = by_list.entries()[slot];
    EXPECT_EQ(a.pid, b.pid);
    EXPECT_EQ(a.first_seen, b.first_seen);
    EXPECT_EQ(a.last_seen, b.last_seen);
    EXPECT_EQ(a.ever_dht_server, b.ever_dht_server);
    EXPECT_EQ(name_log.names(a.protocols), list_log.names(b.protocols)) << "slot " << slot;
  }
}

TEST_F(PeerstoreTest, FindUnknownReturnsNull) {
  EXPECT_EQ(store.find(PeerId::from_seed(7)), nullptr);
}

TEST_F(PeerstoreTest, MultiplePeersIndependent) {
  const PeerId other = PeerId::from_seed(2);
  store.set_agent(pid, "a", 1);
  store.set_agent(other, "b", 1);
  EXPECT_EQ(store.find(pid)->agent, "a");
  EXPECT_EQ(store.find(other)->agent, "b");
  EXPECT_EQ(store.size(), 2u);

  // Past a thousand peers every entry is still found, and entries() keeps
  // first-seen order.
  constexpr std::uint64_t kPeers = 1'500;
  for (std::uint64_t seed = 3; seed <= kPeers; ++seed) {
    store.set_protocols(PeerId::from_seed(seed), Names{seed % 2 == 0 ? "even" : "odd"},
                        static_cast<common::SimTime>(seed));
  }
  ASSERT_EQ(store.size(), kPeers);
  EXPECT_EQ(store.find(pid)->agent, "a");
  for (std::uint64_t seed = 3; seed <= kPeers; ++seed) {
    const auto* entry = store.find(PeerId::from_seed(seed));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->first_seen, static_cast<common::SimTime>(seed));
    EXPECT_TRUE(store.supports(entry->pid, seed % 2 == 0 ? "even" : "odd"));
    EXPECT_EQ(store.slot(entry->pid), seed - 1);
  }
  std::size_t slot = 0;
  for (const auto& entry : store.entries()) {
    EXPECT_EQ(entry.pid, PeerId::from_seed(slot + 1));
    ++slot;
  }
  EXPECT_EQ(log.added_peers.size(), kPeers);
}

}  // namespace
}  // namespace ipfs::p2p
