#include "measure/dataset.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

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
  a.record(ai).agent_history.push_back({10, "go-ipfs/0.11.0/x"});
  a.record(ai).protocols_ever.insert("/ipfs/kad/1.0.0");
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
  b.record(bi).agent_history.push_back({40, "go-ipfs/0.12.0/y"});
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
  dataset.record(i).agent_history.push_back({0, "go-ipfs/0.11.0/x"});
  dataset.record(i).connected_ips.insert(p2p::IpAddress::v4(42));
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
  dataset.record(a).agent_history.push_back({0, "go-ipfs/0.11.0/x"});
  dataset.record(a).protocols_ever.insert("/ipfs/kad/1.0.0");
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
  copy.record(1).agent_history.push_back({7, "kubo/0.18.0"});
  EXPECT_FALSE(std::as_const(original).record(1).ever_dht_server);
  EXPECT_TRUE(std::as_const(original).record(1).agent_history.empty());

  original.record(0).protocols_ever.insert("/ipfs/bitswap/1.2.0");
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

}  // namespace
}  // namespace ipfs::measure
