#include "p2p/swarm.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace ipfs::p2p {
namespace {

using common::kSecond;

// The remote's peerstore slot rides in the padding after `direction`: a
// connection is copied into every observer event, so it must not grow.
static_assert(sizeof(Connection) == 104);

struct CloseLog : SwarmObserver {
  std::vector<Connection> opened;
  std::vector<Connection> closed;
  void on_connection_opened(const Connection& connection) override {
    opened.push_back(connection);
  }
  void on_connection_closed(const Connection& connection) override {
    closed.push_back(connection);
  }
};

class SwarmTest : public ::testing::Test {
 protected:
  SwarmTest()
      : swarm(sim, PeerId::from_seed(1),
              Multiaddr{IpAddress::v4(1), Transport::kTcp, 4001},
              {ConnManagerConfig::with_watermarks(2, 4), true}) {
    swarm.add_observer(&log);
  }

  Multiaddr remote_addr(std::uint32_t ip) {
    return Multiaddr{IpAddress::v4(ip), Transport::kTcp, 4001};
  }

  sim::Simulation sim;
  Swarm swarm;
  CloseLog log;
};

TEST_F(SwarmTest, OpenCloseLifecycle) {
  const auto id =
      swarm.open_connection(PeerId::from_seed(2), remote_addr(2), Direction::kInbound);
  EXPECT_EQ(swarm.open_count(), 1u);
  EXPECT_TRUE(swarm.connected_to(PeerId::from_seed(2)));
  ASSERT_NE(swarm.find(id), nullptr);
  EXPECT_TRUE(swarm.find(id)->is_open());

  sim.run_until(10 * kSecond);
  EXPECT_TRUE(swarm.close_connection(id, CloseReason::kRemoteClose));
  EXPECT_EQ(swarm.open_count(), 0u);
  EXPECT_FALSE(swarm.connected_to(PeerId::from_seed(2)));
  ASSERT_EQ(log.closed.size(), 1u);
  EXPECT_EQ(log.closed[0].reason, CloseReason::kRemoteClose);
  EXPECT_EQ(log.closed[0].closed, 10 * kSecond);
  EXPECT_EQ(log.closed[0].duration_at(sim.now()), 10 * kSecond);
}

TEST_F(SwarmTest, DoubleCloseReturnsFalse) {
  const auto id =
      swarm.open_connection(PeerId::from_seed(2), remote_addr(2), Direction::kInbound);
  EXPECT_TRUE(swarm.close_connection(id, CloseReason::kLocalClose));
  EXPECT_FALSE(swarm.close_connection(id, CloseReason::kLocalClose));
  EXPECT_FALSE(swarm.close_connection(9999, CloseReason::kLocalClose));
}

TEST_F(SwarmTest, PeerstoreLearnsAddressOnOpen) {
  swarm.open_connection(PeerId::from_seed(2), remote_addr(42), Direction::kInbound);
  const auto* entry = swarm.peerstore().find(PeerId::from_seed(2));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(std::count(entry->addresses.begin(), entry->addresses.end(),
                       remote_addr(42)),
            1);
}

TEST_F(SwarmTest, MultipleConnectionsPerPeer) {
  const PeerId remote = PeerId::from_seed(2);
  const auto a = swarm.open_connection(remote, remote_addr(2), Direction::kInbound);
  const auto b = swarm.open_connection(remote, remote_addr(2), Direction::kOutbound);
  EXPECT_NE(a, b);
  EXPECT_EQ(swarm.open_count(), 2u);
  swarm.close_connection(a, CloseReason::kLocalClose);
  EXPECT_TRUE(swarm.connected_to(remote));  // second connection remains
  swarm.close_connection(b, CloseReason::kLocalClose);
  EXPECT_FALSE(swarm.connected_to(remote));
}

TEST_F(SwarmTest, ClosePeerClosesAll) {
  const PeerId remote = PeerId::from_seed(2);
  swarm.open_connection(remote, remote_addr(2), Direction::kInbound);
  swarm.open_connection(remote, remote_addr(2), Direction::kInbound);
  swarm.open_connection(PeerId::from_seed(3), remote_addr(3), Direction::kInbound);
  EXPECT_EQ(swarm.close_peer(remote, CloseReason::kPeerOffline), 2u);
  EXPECT_EQ(swarm.open_count(), 1u);
}

TEST_F(SwarmTest, ClosePeerUnknownPeerClosesNothing) {
  swarm.open_connection(PeerId::from_seed(2), remote_addr(2), Direction::kInbound);
  EXPECT_EQ(swarm.close_peer(PeerId::from_seed(99), CloseReason::kPeerOffline), 0u);
  EXPECT_EQ(swarm.open_count(), 1u);
  EXPECT_TRUE(log.closed.empty());
}

TEST_F(SwarmTest, ClosePeerInterleavedWithOtherPeers) {
  // Every connection opens inside the grace period, so none is trimmed.
  const PeerId target = PeerId::from_seed(2);
  std::vector<ConnectionId> target_ids;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      target_ids.push_back(
          swarm.open_connection(target, remote_addr(2), Direction::kInbound));
    } else {
      swarm.open_connection(PeerId::from_seed(static_cast<std::uint64_t>(10 + i)),
                            remote_addr(static_cast<std::uint32_t>(10 + i)),
                            Direction::kOutbound);
    }
  }
  // The ids in table order, as a full walk collects them.
  std::vector<ConnectionId> walk_order;
  for (const Connection* connection : swarm.open_connections()) {
    if (connection->remote == target) walk_order.push_back(connection->id);
  }

  EXPECT_EQ(swarm.close_peer(target, CloseReason::kPeerOffline), 4u);
  EXPECT_EQ(swarm.open_count(), 8u);
  EXPECT_FALSE(swarm.connected_to(target));
  std::vector<ConnectionId> closed_order;
  for (const Connection& connection : log.closed) {
    EXPECT_EQ(connection.remote, target);
    EXPECT_EQ(connection.reason, CloseReason::kPeerOffline);
    closed_order.push_back(connection.id);
  }
  EXPECT_EQ(closed_order, walk_order);
  std::sort(closed_order.begin(), closed_order.end());
  EXPECT_EQ(closed_order, target_ids);
}

TEST_F(SwarmTest, PerPeerCountsSurviveInterleavedOpensAndCloses) {
  const PeerId a = PeerId::from_seed(2);
  const PeerId b = PeerId::from_seed(3);
  const PeerId c = PeerId::from_seed(4);
  const auto a1 = swarm.open_connection(a, remote_addr(2), Direction::kInbound);
  const auto b1 = swarm.open_connection(b, remote_addr(3), Direction::kInbound);
  const auto a2 = swarm.open_connection(a, remote_addr(2), Direction::kOutbound);
  swarm.close_connection(b1, CloseReason::kRemoteClose);
  const auto c1 = swarm.open_connection(c, remote_addr(4), Direction::kInbound);
  const auto b2 = swarm.open_connection(b, remote_addr(3), Direction::kOutbound);
  swarm.close_connection(a1, CloseReason::kRemoteClose);
  EXPECT_TRUE(swarm.connected_to(a));
  EXPECT_TRUE(swarm.connected_to(b));
  EXPECT_TRUE(swarm.connected_to(c));

  swarm.close_connection(c1, CloseReason::kLocalClose);
  EXPECT_FALSE(swarm.connected_to(c));
  EXPECT_EQ(swarm.close_peer(c, CloseReason::kPeerOffline), 0u);
  EXPECT_EQ(swarm.close_peer(a, CloseReason::kPeerOffline), 1u);
  EXPECT_EQ(log.closed.back().id, a2);
  EXPECT_FALSE(swarm.connected_to(a));
  EXPECT_EQ(swarm.close_peer(b, CloseReason::kPeerOffline), 1u);
  EXPECT_EQ(log.closed.back().id, b2);
  EXPECT_EQ(swarm.open_count(), 0u);
}

TEST_F(SwarmTest, PeerReconnectsAfterAllConnectionsClosed) {
  const PeerId remote = PeerId::from_seed(2);
  const auto first = swarm.open_connection(remote, remote_addr(2), Direction::kInbound);
  swarm.close_connection(first, CloseReason::kRemoteClose);
  EXPECT_FALSE(swarm.connected_to(remote));
  EXPECT_EQ(swarm.close_peer(remote, CloseReason::kPeerOffline), 0u);

  const auto again = swarm.open_connection(remote, remote_addr(5), Direction::kOutbound);
  EXPECT_TRUE(swarm.connected_to(remote));
  EXPECT_EQ(swarm.peerstore().size(), 1u);
  EXPECT_EQ(swarm.peerstore().find(remote)->addresses.size(), 2u);
  EXPECT_EQ(swarm.close_peer(remote, CloseReason::kPeerOffline), 1u);
  EXPECT_EQ(log.closed.back().id, again);
  EXPECT_FALSE(swarm.connected_to(remote));
}

TEST_F(SwarmTest, CloseAll) {
  for (int i = 2; i < 6; ++i) {
    swarm.open_connection(PeerId::from_seed(static_cast<std::uint64_t>(i)),
                          remote_addr(static_cast<std::uint32_t>(i)),
                          Direction::kInbound);
  }
  swarm.close_all(CloseReason::kMeasurementEnd);
  EXPECT_EQ(swarm.open_count(), 0u);
  EXPECT_EQ(log.closed.size(), 4u);
  for (const Connection& connection : log.closed) {
    EXPECT_EQ(connection.reason, CloseReason::kMeasurementEnd);
  }
}

TEST_F(SwarmTest, TrimOnHighWaterCrossing) {
  // HighWater = 4: the fifth connection triggers an immediate trim to
  // LowWater = 2, but only connections past the 20 s grace period close.
  for (int i = 2; i <= 5; ++i) {
    swarm.open_connection(PeerId::from_seed(static_cast<std::uint64_t>(i)),
                          remote_addr(static_cast<std::uint32_t>(i)),
                          Direction::kInbound);
  }
  EXPECT_EQ(swarm.open_count(), 4u);
  sim.run_until(30 * kSecond);  // all four leave the grace period
  swarm.open_connection(PeerId::from_seed(6), remote_addr(6), Direction::kInbound);
  // 5 open > HighWater=4 -> trim to LowWater=2.
  EXPECT_EQ(swarm.open_count(), 2u);
  for (const Connection& connection : log.closed) {
    EXPECT_EQ(connection.reason, CloseReason::kLocalTrim);
  }
}

TEST_F(SwarmTest, PeriodicTrimLoop) {
  swarm.start();
  for (int i = 2; i <= 6; ++i) {
    swarm.open_connection(PeerId::from_seed(static_cast<std::uint64_t>(i)),
                          remote_addr(static_cast<std::uint32_t>(i)),
                          Direction::kInbound);
  }
  // All inside grace: the on-open trim could not close anything yet.
  EXPECT_EQ(swarm.open_count(), 5u);
  sim.run_until(60 * kSecond);  // trim ticks run every 10 s
  EXPECT_EQ(swarm.open_count(), 2u);
  swarm.stop();
}

/// Opens `count` connections to distinct peers at the current instant.
void open_distinct(Swarm& swarm, int count) {
  for (int i = 0; i < count; ++i) {
    const auto seed = static_cast<std::uint64_t>(swarm.opened_total()) + 100;
    swarm.open_connection(PeerId::from_seed(seed),
                          Multiaddr{IpAddress::v4(static_cast<std::uint32_t>(seed)),
                                    Transport::kTcp, 4001},
                          Direction::kInbound);
  }
}

TEST_F(SwarmTest, TickAtExactlyHighWaterClosesNothing) {
  swarm.start();
  open_distinct(swarm, 4);      // HighWater = 4
  sim.run_until(60 * kSecond);  // ticks run with every connection past grace
  EXPECT_EQ(swarm.trim_now(), 0u);
  EXPECT_EQ(swarm.open_count(), 4u);
  EXPECT_TRUE(log.closed.empty());
}

TEST_F(SwarmTest, TickAboveHighWaterTrimsToLowWater) {
  swarm.start();
  open_distinct(swarm, 5);  // HighWater + 1, all inside grace at open time
  EXPECT_EQ(swarm.open_count(), 5u);
  sim.run_until(60 * kSecond);
  EXPECT_EQ(swarm.open_count(), 2u);  // LowWater = 2
  ASSERT_EQ(log.closed.size(), 3u);
  for (const Connection& connection : log.closed) {
    EXPECT_EQ(connection.reason, CloseReason::kLocalTrim);
  }
}

TEST(SwarmWatermarks, ZeroHighWaterNeverTrims) {
  sim::Simulation sim;
  Swarm swarm(sim, PeerId::from_seed(1),
              Multiaddr{IpAddress::v4(1), Transport::kTcp, 4001},
              {ConnManagerConfig::with_watermarks(0, 0), /*trim_enabled=*/true});
  swarm.start();
  open_distinct(swarm, 50);
  sim.run_until(120 * kSecond);
  EXPECT_EQ(swarm.trim_now(), 0u);
  EXPECT_EQ(swarm.open_count(), 50u);
}

TEST(SwarmWatermarks, DisabledTrimReturnsZero) {
  sim::Simulation sim;
  Swarm swarm(sim, PeerId::from_seed(1),
              Multiaddr{IpAddress::v4(1), Transport::kTcp, 4001},
              {ConnManagerConfig::with_watermarks(1, 2), /*trim_enabled=*/false});
  open_distinct(swarm, 10);
  sim.run_until(120 * kSecond);
  EXPECT_EQ(swarm.trim_now(), 0u);
  EXPECT_EQ(swarm.open_count(), 10u);
}

TEST_F(SwarmTest, TrimHonoursProtection) {
  sim.run_until(0);
  std::vector<ConnectionId> ids;
  for (int i = 2; i <= 6; ++i) {
    const PeerId remote = PeerId::from_seed(static_cast<std::uint64_t>(i));
    ids.push_back(swarm.open_connection(remote, remote_addr(2), Direction::kInbound));
    swarm.conn_manager().protect(remote);
  }
  sim.run_until(60 * kSecond);
  EXPECT_EQ(swarm.trim_now(), 0u);
  EXPECT_EQ(swarm.open_count(), 5u);
}

TEST_F(SwarmTest, OpenedTotalCounts) {
  for (int i = 0; i < 3; ++i) {
    const auto id = swarm.open_connection(PeerId::from_seed(2), remote_addr(2),
                                          Direction::kInbound);
    swarm.close_connection(id, CloseReason::kLocalClose);
  }
  EXPECT_EQ(swarm.opened_total(), 3u);
  EXPECT_EQ(swarm.open_count(), 0u);
}

TEST_F(SwarmTest, ObserverRemoval) {
  swarm.remove_observer(&log);
  swarm.open_connection(PeerId::from_seed(2), remote_addr(2), Direction::kInbound);
  EXPECT_TRUE(log.opened.empty());
}

TEST_F(SwarmTest, ConnectionIdsAreUniqueAndMonotonic) {
  ConnectionId previous = 0;
  for (int i = 0; i < 10; ++i) {
    const auto id = swarm.open_connection(PeerId::from_seed(2), remote_addr(2),
                                          Direction::kInbound);
    EXPECT_GT(id, previous);
    previous = id;
    swarm.close_connection(id, CloseReason::kLocalClose);
  }
}

TEST(SwarmNoTrim, DisabledTrimKeepsEverything) {
  sim::Simulation sim;
  Swarm swarm(sim, PeerId::from_seed(1),
              Multiaddr{IpAddress::v4(1), Transport::kTcp, 4001},
              {ConnManagerConfig::with_watermarks(1, 2), /*trim_enabled=*/false});
  swarm.start();
  for (int i = 2; i < 30; ++i) {
    swarm.open_connection(PeerId::from_seed(static_cast<std::uint64_t>(i)),
                          Multiaddr{IpAddress::v4(static_cast<std::uint32_t>(i)),
                                    Transport::kTcp, 4001},
                          Direction::kInbound);
  }
  sim.run_until(120 * kSecond);
  EXPECT_EQ(swarm.open_count(), 28u);
}

TEST_F(SwarmTest, ConnectionsCarryTheRemotesPeerstoreSlot) {
  const PeerId a = PeerId::from_seed(2);
  const PeerId b = PeerId::from_seed(3);
  const auto first = swarm.open_connection(a, remote_addr(2), Direction::kInbound);
  const auto second = swarm.open_connection(b, remote_addr(3), Direction::kOutbound);
  const auto again = swarm.open_connection(a, remote_addr(4), Direction::kInbound);
  EXPECT_EQ(swarm.find(first)->slot, *swarm.peerstore().slot(a));
  EXPECT_EQ(swarm.find(second)->slot, *swarm.peerstore().slot(b));
  EXPECT_EQ(swarm.find(again)->slot, swarm.find(first)->slot);
  ASSERT_EQ(log.opened.size(), 3u);
  EXPECT_EQ(log.opened[1].slot, *swarm.peerstore().slot(b));
  swarm.close_connection(second, CloseReason::kRemoteClose);
  ASSERT_EQ(log.closed.size(), 1u);
  EXPECT_EQ(log.closed[0].slot, *swarm.peerstore().slot(b));
}

}  // namespace
}  // namespace ipfs::p2p
