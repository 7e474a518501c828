#include "measure/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace ipfs::measure {
namespace {

using common::kSecond;

TEST(Dataset, InternCreatesOnce) {
  Dataset dataset;
  const auto pid = p2p::PeerId::from_seed(1);
  const PeerIndex a = dataset.intern(pid, 100);
  const PeerIndex b = dataset.intern(pid, 200);
  EXPECT_EQ(a, b);
  EXPECT_EQ(dataset.peer_count(), 1u);
  EXPECT_EQ(dataset.record(a).first_seen, 100);
  EXPECT_EQ(dataset.record(a).last_seen, 200);
}

TEST(Dataset, FindByPid) {
  Dataset dataset;
  const auto pid = p2p::PeerId::from_seed(1);
  dataset.intern(pid, 5);
  ASSERT_NE(dataset.find(pid), nullptr);
  EXPECT_EQ(dataset.find(pid)->pid, pid);
  EXPECT_EQ(dataset.find(p2p::PeerId::from_seed(9)), nullptr);
}

TEST(Dataset, ConnectionsByPeerGroups) {
  Dataset dataset;
  const PeerIndex a = dataset.intern(p2p::PeerId::from_seed(1), 0);
  const PeerIndex b = dataset.intern(p2p::PeerId::from_seed(2), 0);
  dataset.add_connection({a, 0, 10, p2p::Direction::kInbound,
                          p2p::CloseReason::kRemoteClose});
  dataset.add_connection({b, 0, 20, p2p::Direction::kInbound,
                          p2p::CloseReason::kRemoteClose});
  dataset.add_connection({a, 30, 40, p2p::Direction::kOutbound,
                          p2p::CloseReason::kLocalClose});
  const auto& by_peer = dataset.connections_by_peer();
  ASSERT_EQ(by_peer.size(), 2u);
  EXPECT_EQ(by_peer[a].size(), 2u);
  EXPECT_EQ(by_peer[b].size(), 1u);
}

TEST(Dataset, ConnRecordDuration) {
  ConnRecord record;
  record.opened = 10 * kSecond;
  record.closed = 95 * kSecond;
  EXPECT_EQ(record.duration(), 85 * kSecond);
}

TEST(Dataset, MergeUnionsPeers) {
  Dataset a;
  a.vantage = "H0";
  a.measurement_start = 0;
  a.measurement_end = 100;
  const auto shared_pid = p2p::PeerId::from_seed(1);
  const auto a_only = p2p::PeerId::from_seed(2);
  const PeerIndex ai = a.intern(shared_pid, 10);
  a.intern(a_only, 20);
  a.add_agent(ai, 10, "go-ipfs/0.11.0/x");
  a.add_protocol_event(ai, 10, "/ipfs/kad/1.0.0", true);
  a.record(ai).ever_dht_server = true;
  a.add_connection({ai, 10, 50, p2p::Direction::kInbound,
                    p2p::CloseReason::kRemoteClose});

  Dataset b;
  b.vantage = "H1";
  b.measurement_start = 0;
  b.measurement_end = 200;
  const auto b_only = p2p::PeerId::from_seed(3);
  const PeerIndex bi = b.intern(shared_pid, 5);
  b.intern(b_only, 30);
  b.add_agent(bi, 40, "go-ipfs/0.12.0/y");
  b.add_connection({bi, 5, 25, p2p::Direction::kInbound,
                    p2p::CloseReason::kRemoteClose});

  Dataset merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.peer_count(), 3u);
  EXPECT_EQ(merged.connection_count(), 2u);
  EXPECT_EQ(merged.measurement_end, 200);

  const PeerRecord* shared = merged.find(shared_pid);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->first_seen, 5);
  EXPECT_TRUE(shared->ever_dht_server);
  // Agent histories interleave in time order.
  ASSERT_EQ(shared->agent_history.size(), 2u);
  EXPECT_EQ(shared->agent_history[0].at, 10);
  EXPECT_EQ(shared->agent_history[1].at, 40);

  // Connection peer indices remapped into the merged dataset.
  for (const ConnRecord& record : merged.connections()) {
    EXPECT_LT(record.peer, merged.peer_count());
  }
}

TEST(Dataset, MergeRemapsConnectionIndices) {
  Dataset a;
  a.intern(p2p::PeerId::from_seed(10), 0);  // occupies index 0
  Dataset b;
  const PeerIndex bi = b.intern(p2p::PeerId::from_seed(20), 0);
  b.add_connection({bi, 0, 10, p2p::Direction::kInbound,
                    p2p::CloseReason::kRemoteClose});
  a.merge(b);
  ASSERT_EQ(a.connection_count(), 1u);
  const auto& record = a.connections()[0];
  EXPECT_EQ(a.record(record.peer).pid, p2p::PeerId::from_seed(20));
}

TEST(Dataset, ExportJsonIsWellFormedish) {
  Dataset dataset;
  dataset.vantage = "go-ipfs";
  dataset.measurement_end = 1000;
  const PeerIndex i = dataset.intern(p2p::PeerId::from_seed(1), 0);
  dataset.add_agent(i, 0, "go-ipfs/0.11.0/x");
  dataset.add_connected_ip(i, p2p::IpAddress::v4(42));
  dataset.add_connection({i, 0, 500, p2p::Direction::kInbound,
                          p2p::CloseReason::kRemoteTrim});
  std::ostringstream out;
  dataset.export_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"vantage\": \"go-ipfs\""), std::string::npos);
  EXPECT_NE(json.find("\"agent\": \"go-ipfs/0.11.0/x\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"remote-trim\""), std::string::npos);
  // Balanced braces/brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Dataset, ExportJsonWithoutConnections) {
  Dataset dataset;
  const PeerIndex i = dataset.intern(p2p::PeerId::from_seed(1), 0);
  dataset.add_connection({i, 0, 1, p2p::Direction::kInbound,
                          p2p::CloseReason::kRemoteClose});
  std::ostringstream out;
  dataset.export_json(out, /*include_connections=*/false);
  EXPECT_EQ(out.str().find("\"connections\""), std::string::npos);
}

// ---- copies share storage until one side writes ---------------------------

/// Two peers, one with an agent and a protocol, and three connections.
Dataset small_dataset() {
  Dataset dataset;
  dataset.vantage = "go-ipfs";
  dataset.measurement_end = 1000;
  const PeerIndex a = dataset.intern(p2p::PeerId::from_seed(1), 0);
  const PeerIndex b = dataset.intern(p2p::PeerId::from_seed(2), 5);
  dataset.add_agent(a, 0, "go-ipfs/0.11.0/x");
  dataset.add_protocol_event(a, 0, "/ipfs/kad/1.0.0", true);
  dataset.add_connection({a, 0, 10, p2p::Direction::kInbound,
                          p2p::CloseReason::kRemoteClose});
  dataset.add_connection({b, 5, 20, p2p::Direction::kOutbound,
                          p2p::CloseReason::kLocalClose});
  dataset.add_connection({a, 30, 40, p2p::Direction::kInbound,
                          p2p::CloseReason::kRemoteTrim});
  return dataset;
}

std::string exported(const Dataset& dataset) {
  std::ostringstream out;
  dataset.export_json(out);
  return out.str();
}

TEST(DatasetSharing, CopyExportsTheSameBytes) {
  const Dataset original = small_dataset();
  const Dataset copy = original;
  EXPECT_EQ(exported(copy), exported(original));
  EXPECT_EQ(&copy.peers(), &original.peers()) << "a copy shares the peer table";
}

TEST(DatasetSharing, InternOnEitherSideLeavesTheOtherUnchanged) {
  Dataset original = small_dataset();
  const std::string before = exported(original);
  Dataset copy = original;
  copy.intern(p2p::PeerId::from_seed(3), 50);
  EXPECT_EQ(copy.peer_count(), 3u);
  EXPECT_EQ(exported(original), before);

  Dataset second = original;
  original.intern(p2p::PeerId::from_seed(4), 60);
  EXPECT_EQ(original.peer_count(), 3u);
  EXPECT_EQ(exported(second), before);
  EXPECT_EQ(second.find(p2p::PeerId::from_seed(4)), nullptr);
  // Interning a known PID moves its last_seen, on the writer only.
  Dataset third = second;
  third.intern(p2p::PeerId::from_seed(1), 900);
  EXPECT_EQ(third.record(0).last_seen, 900);
  EXPECT_EQ(second.record(0).last_seen, 0);
}

TEST(DatasetSharing, RecordWritesOnEitherSideLeaveTheOtherUnchanged) {
  Dataset original = small_dataset();
  Dataset copy = original;
  copy.record(1).ever_dht_server = true;
  copy.add_agent(1, 7, "kubo/0.18.0");
  EXPECT_FALSE(std::as_const(original).record(1).ever_dht_server);
  EXPECT_TRUE(std::as_const(original).record(1).agent_history.empty());

  original.add_protocol_event(0, 40, "/ipfs/bitswap/1.2.0", true);
  EXPECT_EQ(std::as_const(copy).record(0).protocols_ever.size(), 1u);
  EXPECT_EQ(std::as_const(original).record(0).protocols_ever.size(), 2u);
}

TEST(DatasetSharing, AddConnectionOnEitherSideLeavesTheOtherUnchanged) {
  Dataset original = small_dataset();
  Dataset copy = original;
  copy.add_connection({1, 50, 60, p2p::Direction::kInbound,
                       p2p::CloseReason::kRemoteClose});
  EXPECT_EQ(copy.connection_count(), 4u);
  EXPECT_EQ(original.connection_count(), 3u);
  original.add_connection({0, 70, 80, p2p::Direction::kInbound,
                           p2p::CloseReason::kRemoteClose});
  EXPECT_EQ(original.connection_count(), 4u);
  EXPECT_EQ(copy.connections().back().opened, 50);
  EXPECT_EQ(original.connections().back().opened, 70);
}

TEST(DatasetSharing, MergeIntoACopyLeavesTheOriginalUnchanged) {
  const Dataset original = small_dataset();
  const std::string before = exported(original);
  Dataset other;
  const PeerIndex x = other.intern(p2p::PeerId::from_seed(9), 3);
  other.add_connection({x, 3, 4, p2p::Direction::kInbound,
                        p2p::CloseReason::kRemoteClose});
  Dataset copy = original;
  copy.merge(other);
  EXPECT_EQ(copy.peer_count(), 3u);
  EXPECT_EQ(copy.connection_count(), 4u);
  EXPECT_EQ(exported(original), before);
  EXPECT_EQ(other.peer_count(), 1u);
}

TEST(DatasetSharing, CopyAssignmentShares) {
  const Dataset original = small_dataset();
  Dataset target;
  target.intern(p2p::PeerId::from_seed(99), 1);
  ASSERT_EQ(target.connections_by_peer().size(), 1u);
  target = original;
  EXPECT_EQ(exported(target), exported(original));
  EXPECT_EQ(target.connections_by_peer().size(), 2u) << "the cache was reset";
  target.intern(p2p::PeerId::from_seed(98), 2);
  EXPECT_EQ(original.peer_count(), 2u);
  EXPECT_EQ(original.find(p2p::PeerId::from_seed(98)), nullptr);
}

TEST(DatasetSharing, MovedFromIsEmptyAndUsable) {
  Dataset original = small_dataset();
  const std::string before = exported(original);
  Dataset moved = std::move(original);
  EXPECT_EQ(exported(moved), before);

  EXPECT_EQ(original.peer_count(), 0u);
  EXPECT_EQ(original.connection_count(), 0u);
  EXPECT_TRUE(original.peers().empty());
  EXPECT_TRUE(original.connections().empty());
  EXPECT_TRUE(original.connections_by_peer().empty());
  EXPECT_EQ(original.find(p2p::PeerId::from_seed(1)), nullptr);
  Dataset empty;
  empty.vantage = original.vantage;
  empty.measurement_start = original.measurement_start;
  empty.measurement_end = original.measurement_end;
  EXPECT_EQ(exported(original), exported(empty));

  const PeerIndex i = original.intern(p2p::PeerId::from_seed(5), 1);
  original.add_connection({i, 1, 2, p2p::Direction::kInbound,
                           p2p::CloseReason::kRemoteClose});
  EXPECT_EQ(original.peer_count(), 1u);
  EXPECT_EQ(original.connections_by_peer()[i].size(), 1u);
  EXPECT_EQ(exported(moved), before);
}

TEST(DatasetSharing, MergeWithItsOwnCopy) {
  Dataset original = small_dataset();
  const std::string before = exported(original);
  const Dataset copy = original;
  original.merge(copy);
  EXPECT_EQ(exported(copy), before);
  EXPECT_EQ(original.peer_count(), 2u);
  EXPECT_EQ(original.connection_count(), 6u);
  EXPECT_EQ(std::as_const(original).record(0).agent_history.size(), 2u);
  EXPECT_EQ(original.connections_by_peer()[0].size(), 4u);

  // And with itself: the same as merging a copy.
  Dataset self = small_dataset();
  self.merge(self);
  EXPECT_EQ(exported(self), exported(original));
}

TEST(DatasetSharing, ConnectionsByPeerOnACopyMutatedAfterTheCopy) {
  Dataset original = small_dataset();
  ASSERT_EQ(original.connections_by_peer()[1].size(), 1u);  // cache built
  Dataset copy = original;
  ASSERT_EQ(copy.connections_by_peer()[1].size(), 1u);
  copy.add_connection({1, 50, 60, p2p::Direction::kInbound,
                       p2p::CloseReason::kRemoteClose});
  EXPECT_EQ(copy.connections_by_peer()[1].size(), 2u);
  EXPECT_EQ(copy.connections_by_peer()[1].back(), 3u);
  EXPECT_EQ(original.connections_by_peer()[1].size(), 1u);

  const PeerIndex fresh = copy.intern(p2p::PeerId::from_seed(3), 70);
  ASSERT_EQ(copy.connections_by_peer().size(), 3u);
  EXPECT_TRUE(copy.connections_by_peer()[fresh].empty());
  EXPECT_EQ(original.connections_by_peer().size(), 2u);
}

// ---- interned agents, protocols and IPs ------------------------------------

p2p::IpAddress ip(const char* text) { return *p2p::IpAddress::parse(text); }

/// One peer announcing `protocols` and connecting from `ips`, in that order.
Dataset one_peer(const std::vector<std::string>& protocols,
                 const std::vector<const char*>& ips) {
  Dataset dataset;
  const PeerIndex peer = dataset.intern(p2p::PeerId::from_seed(1), 0);
  for (const std::string& protocol : protocols) {
    dataset.add_protocol_event(peer, 0, protocol, true);
  }
  for (const char* address : ips) dataset.add_connected_ip(peer, ip(address));
  return dataset;
}

std::string compact(const Dataset& dataset) {
  std::ostringstream out;
  dataset.export_json(out, /*include_connections=*/true, /*pretty=*/false);
  return out.str();
}

TEST(DatasetInterning, ExportOrderIsIndependentOfInternOrder) {
  // First seen in reverse sorted order, and with IPs whose text order
  // ("10." < "9.") differs from their value order.
  const Dataset reversed =
      one_peer({"/ipfs/kad/1.0.0", "/ipfs/id/1.0.0", "/ipfs/bitswap/1.2.0"},
               {"10.0.0.1", "9.0.0.2", "9.0.0.1"});
  const Dataset sorted =
      one_peer({"/ipfs/bitswap/1.2.0", "/ipfs/id/1.0.0", "/ipfs/kad/1.0.0"},
               {"9.0.0.1", "9.0.0.2", "10.0.0.1"});
  const std::string json = compact(reversed);
  EXPECT_EQ(json, compact(sorted));
  // The order a std::set of the names and of the IpAddress values gives.
  EXPECT_NE(json.find(R"("protocols_ever":["/ipfs/bitswap/1.2.0","/ipfs/id/1.0.0",)"
                      R"("/ipfs/kad/1.0.0"])"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"("connected_ips":["9.0.0.1","9.0.0.2","10.0.0.1"])"),
            std::string::npos)
      << json;
  // The ids themselves stay in first-seen order.
  EXPECT_EQ(reversed.protocol_name(0), "/ipfs/kad/1.0.0");
  EXPECT_EQ(reversed.ip(0), ip("10.0.0.1"));
}

TEST(DatasetInterning, RepeatsShareOneIdAndOneSlot) {
  Dataset dataset;
  const PeerIndex a = dataset.intern(p2p::PeerId::from_seed(1), 0);
  const PeerIndex b = dataset.intern(p2p::PeerId::from_seed(2), 0);
  for (const PeerIndex peer : {a, b, a}) {
    dataset.add_agent(peer, 1, "go-ipfs/0.11.0/x");
    dataset.add_protocol_event(peer, 1, "/ipfs/kad/1.0.0", true);
    dataset.add_connected_ip(peer, ip("10.0.0.1"));
  }
  EXPECT_EQ(dataset.agent_count(), 1u);
  EXPECT_EQ(dataset.protocol_count(), 1u);
  EXPECT_EQ(dataset.ip_count(), 1u);
  EXPECT_EQ(dataset.record(a).agent_history.size(), 2u);
  EXPECT_EQ(dataset.record(a).protocol_events.size(), 2u);
  EXPECT_EQ(dataset.record(a).protocols_ever, std::vector<ProtocolId>{0});
  EXPECT_EQ(dataset.record(a).connected_ips, std::vector<IpId>{0});
  EXPECT_EQ(dataset.current_agent(dataset.record(b)), "go-ipfs/0.11.0/x");
}

TEST(DatasetInterning, RemovalIsLoggedButNeverAnnounced) {
  Dataset dataset;
  const PeerIndex peer = dataset.intern(p2p::PeerId::from_seed(1), 0);
  dataset.add_protocol_event(peer, 5, "/libp2p/autonat/1.0.0", false);
  const std::optional<ProtocolId> autonat =
      dataset.find_protocol("/libp2p/autonat/1.0.0");
  ASSERT_TRUE(autonat.has_value());
  ASSERT_EQ(dataset.record(peer).protocol_events.size(), 1u);
  EXPECT_EQ(dataset.record(peer).protocol_events[0].protocol, *autonat);
  EXPECT_FALSE(dataset.record(peer).protocol_events[0].added);
  EXPECT_TRUE(dataset.record(peer).protocols_ever.empty());
}

TEST(DatasetInterning, FindProtocolOfAnUnknownName) {
  const Dataset empty;
  EXPECT_EQ(empty.find_protocol("/ipfs/kad/1.0.0"), std::nullopt);
  const Dataset dataset = one_peer({"/ipfs/kad/1.0.0"}, {});
  EXPECT_EQ(dataset.find_protocol("/ipfs/kad/1.0.0"), std::optional<ProtocolId>{0});
  EXPECT_EQ(dataset.find_protocol("/ipfs/kad/2.0.0"), std::nullopt);
  EXPECT_EQ(dataset.find_protocol(""), std::nullopt);
  EXPECT_EQ(dataset.current_agent(dataset.record(0)), "");
}

/// Peer 1 in both, with tables that differ in content and in order.
Dataset vantage_a() {
  Dataset a;
  a.vantage = "H0";
  a.measurement_end = 100;
  const PeerIndex shared = a.intern(p2p::PeerId::from_seed(1), 10);
  const PeerIndex only = a.intern(p2p::PeerId::from_seed(2), 20);
  a.add_agent(shared, 10, "go-ipfs/0.10.0/a");
  a.add_agent(only, 20, "hydra-booster/0.7.4");
  a.add_protocol_event(shared, 10, "/ipfs/ping/1.0.0", true);
  a.add_protocol_event(shared, 11, "/ipfs/kad/1.0.0", true);
  a.add_protocol_event(only, 20, "/ipfs/id/1.0.0", true);
  a.add_connected_ip(shared, ip("10.0.0.1"));
  a.add_connected_ip(only, ip("10.0.0.2"));
  a.add_connection({shared, 10, 50, p2p::Direction::kInbound,
                    p2p::CloseReason::kRemoteClose});
  return a;
}

Dataset vantage_b() {
  Dataset b;
  b.vantage = "H1";
  b.measurement_end = 200;
  const PeerIndex only = b.intern(p2p::PeerId::from_seed(3), 5);
  const PeerIndex shared = b.intern(p2p::PeerId::from_seed(1), 30);
  b.add_agent(only, 5, "storm");
  b.add_agent(shared, 40, "go-ipfs/0.11.0/b");
  b.add_protocol_event(only, 5, "/sbptp/1.0.0", true);
  b.add_protocol_event(shared, 30, "/ipfs/kad/1.0.0", false);
  b.add_protocol_event(shared, 35, "/ipfs/bitswap/1.2.0", true);
  b.add_protocol_event(shared, 36, "/ipfs/ping/1.0.0", true);
  b.add_connected_ip(only, ip("10.0.0.2"));
  b.add_connected_ip(shared, ip("9.0.0.9"));
  b.add_connected_ip(shared, ip("10.0.0.1"));
  b.add_connection({shared, 30, 60, p2p::Direction::kOutbound,
                    p2p::CloseReason::kLocalClose});
  return b;
}

/// The names a peer's ids stand for, in record order.
std::vector<std::string> agent_names(const Dataset& dataset, const PeerRecord& peer) {
  std::vector<std::string> names;
  for (const AgentEvent& event : peer.agent_history) {
    names.push_back(dataset.agent_name(event.agent));
  }
  return names;
}

std::vector<std::string> protocol_log(const Dataset& dataset, const PeerRecord& peer) {
  std::vector<std::string> log;
  for (const ProtocolEvent& event : peer.protocol_events) {
    log.push_back((event.added ? "+" : "-") + dataset.protocol_name(event.protocol));
  }
  return log;
}

TEST(DatasetInterning, MergeRemapsIdsAcrossTables) {
  const Dataset a = vantage_a();
  const Dataset b = vantage_b();
  Dataset merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.peer_count(), 3u);
  EXPECT_EQ(merged.agent_count(), 4u);
  EXPECT_EQ(merged.protocol_count(), 5u);
  EXPECT_EQ(merged.ip_count(), 3u);

  const PeerRecord* shared = merged.find(p2p::PeerId::from_seed(1));
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(agent_names(merged, *shared),
            (std::vector<std::string>{"go-ipfs/0.10.0/a", "go-ipfs/0.11.0/b"}));
  EXPECT_EQ(protocol_log(merged, *shared),
            (std::vector<std::string>{"+/ipfs/ping/1.0.0", "+/ipfs/kad/1.0.0",
                                      "-/ipfs/kad/1.0.0", "+/ipfs/bitswap/1.2.0",
                                      "+/ipfs/ping/1.0.0"}));
  std::vector<std::string> ever;
  for (const ProtocolId id : shared->protocols_ever) {
    ever.push_back(merged.protocol_name(id));
  }
  std::sort(ever.begin(), ever.end());
  EXPECT_EQ(ever, (std::vector<std::string>{"/ipfs/bitswap/1.2.0", "/ipfs/kad/1.0.0",
                                            "/ipfs/ping/1.0.0"}));
  EXPECT_TRUE(std::ranges::is_sorted(shared->protocols_ever));
  std::vector<p2p::IpAddress> ips;
  for (const IpId id : shared->connected_ips) ips.push_back(merged.ip(id));
  std::sort(ips.begin(), ips.end());
  EXPECT_EQ(ips, (std::vector<p2p::IpAddress>{ip("9.0.0.9"), ip("10.0.0.1")}));
  EXPECT_EQ(merged.current_agent(*shared), "go-ipfs/0.11.0/b");

  const PeerRecord* storm = merged.find(p2p::PeerId::from_seed(3));
  ASSERT_NE(storm, nullptr);
  EXPECT_EQ(merged.current_agent(*storm), "storm");
  EXPECT_EQ(protocol_log(merged, *storm), std::vector<std::string>{"+/sbptp/1.0.0"});

  // Either merge order exports the same peers' names in the same order.
  Dataset reverse;
  reverse.merge(b);
  reverse.merge(a);
  const std::string json = exported(merged);
  EXPECT_NE(json.find("\"protocols_ever\": [\n        \"/ipfs/bitswap/1.2.0\",\n"
                      "        \"/ipfs/kad/1.0.0\",\n        \"/ipfs/ping/1.0.0\"\n"),
            std::string::npos)
      << json;
  EXPECT_NE(exported(reverse).find("\"connected_ips\": [\n        \"9.0.0.9\",\n"
                                   "        \"10.0.0.1\"\n"),
            std::string::npos);
  // The sources keep their own tables.
  EXPECT_EQ(a.protocol_count(), 3u);
  EXPECT_EQ(b.protocol_count(), 4u);
  EXPECT_EQ(a.find_protocol("/sbptp/1.0.0"), std::nullopt);
}

TEST(DatasetInterning, SelfMergeWithDifferentTables) {
  Dataset merged;
  merged.merge(vantage_a());
  merged.merge(vantage_b());
  const std::string before = exported(merged);
  const Dataset copy = merged;
  Dataset by_copy = merged;
  by_copy.merge(copy);
  merged.merge(merged);
  EXPECT_EQ(exported(merged), exported(by_copy));
  EXPECT_EQ(exported(copy), before);
  EXPECT_EQ(merged.protocol_count(), copy.protocol_count())
      << "no name is interned twice";
  const PeerRecord* shared = merged.find(p2p::PeerId::from_seed(1));
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->agent_history.size(), 4u);
  EXPECT_EQ(shared->protocols_ever.size(), 3u);
  EXPECT_EQ(shared->connected_ips.size(), 2u);
}

TEST(DatasetInterning, CopyThatInternsLeavesTheOriginalTables) {
  auto original = std::make_unique<Dataset>(vantage_a());
  const std::string before = exported(*original);
  Dataset copy = *original;
  copy.add_agent(0, 60, "kubo/0.18.0");
  copy.add_protocol_event(0, 60, "/libp2p/autonat/1.0.0", true);
  copy.add_connected_ip(0, ip("192.168.0.1"));
  EXPECT_EQ(original->agent_count(), 2u);
  EXPECT_EQ(original->protocol_count(), 3u);
  EXPECT_EQ(original->ip_count(), 2u);
  EXPECT_EQ(original->find_protocol("/libp2p/autonat/1.0.0"), std::nullopt);
  EXPECT_EQ(exported(*original), before);

  // The copy owns its names: it reads them after the original is gone.
  original.reset();
  EXPECT_EQ(copy.agent_count(), 3u);
  EXPECT_EQ(copy.current_agent(copy.record(0)), "kubo/0.18.0");
  ASSERT_TRUE(copy.find_protocol("/ipfs/kad/1.0.0").has_value());
  EXPECT_EQ(copy.protocol_name(*copy.find_protocol("/ipfs/kad/1.0.0")),
            "/ipfs/kad/1.0.0");
  copy.add_protocol_event(1, 70, "/ipfs/kad/1.0.0", true);  // a known name, post-clone
  EXPECT_EQ(copy.protocol_count(), 4u);
  const std::string json = exported(copy);
  EXPECT_NE(json.find("\"agent\": \"kubo/0.18.0\""), std::string::npos);
  EXPECT_NE(json.find("\"192.168.0.1\""), std::string::npos);
}

TEST(DatasetInterning, OriginalThatInternsLeavesTheCopyTables) {
  Dataset original = vantage_a();
  const Dataset copy = original;
  const std::string before = exported(copy);
  original.add_protocol_event(1, 60, "/libp2p/autonat/1.0.0", true);
  original.add_agent(1, 60, "kubo/0.18.0");
  EXPECT_EQ(copy.protocol_count(), 3u);
  EXPECT_EQ(copy.agent_count(), 2u);
  EXPECT_EQ(exported(copy), before);
}

}  // namespace
}  // namespace ipfs::measure
