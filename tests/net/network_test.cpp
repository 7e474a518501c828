#include "net/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "testing/hosts.hpp"

namespace ipfs::net {
namespace {

using common::kSecond;
using p2p::CloseReason;
using p2p::Direction;
using p2p::PeerId;

/// Three scripted hosts (alice, bob, carol) on one fabric, built on the
/// shared `testing::HostNet` harness — which also bakes in the Host
/// lifetime contract (hosts outlive the Network) once, instead of every
/// fixture re-deriving it.
class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : net(3),
        alice(net.host(0)),
        bob(net.host(1)),
        carol(net.host(2)),
        sim(net.sim()),
        network(net.network()) {}

  ipfs::testing::HostNet net;
  ipfs::testing::ScriptedHost& alice;
  ipfs::testing::ScriptedHost& bob;
  ipfs::testing::ScriptedHost& carol;
  sim::Simulation& sim;
  Network& network;
};

TEST_F(NetworkTest, DialCreatesMirroredConnections) {
  bool done = false;
  bool ok = false;
  network.dial(alice.swarm().local_id(), bob.swarm().local_id(), [&](bool success) {
    done = true;
    ok = success;
  });
  EXPECT_FALSE(done);  // completes only after the RTT elapses
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(network.connected(alice.swarm().local_id(), bob.swarm().local_id()));
  EXPECT_EQ(alice.swarm().open_count(), 1u);
  EXPECT_EQ(bob.swarm().open_count(), 1u);
  EXPECT_EQ(alice.swarm().open_connections()[0]->direction, Direction::kOutbound);
  EXPECT_EQ(bob.swarm().open_connections()[0]->direction, Direction::kInbound);
}

TEST_F(NetworkTest, DialToOfflinePeerFails) {
  bool ok = true;
  network.dial(alice.swarm().local_id(), PeerId::from_seed(99),
               [&](bool success) { ok = success; });
  sim.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(alice.swarm().open_count(), 0u);
}

TEST_F(NetworkTest, ConnectionGatingRefusesDial) {
  bob.accept = false;
  bool ok = true;
  network.dial(alice.swarm().local_id(), bob.swarm().local_id(),
               [&](bool success) { ok = success; });
  sim.run();
  EXPECT_FALSE(ok);
  EXPECT_FALSE(network.connected(alice.swarm().local_id(), bob.swarm().local_id()));
}

TEST_F(NetworkTest, DuplicateDialFails) {
  network.dial(alice.swarm().local_id(), bob.swarm().local_id());
  sim.run();
  bool ok = true;
  network.dial(alice.swarm().local_id(), bob.swarm().local_id(),
               [&](bool success) { ok = success; });
  sim.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(alice.swarm().open_count(), 1u);
}

TEST_F(NetworkTest, MessageDeliveredWithLatency) {
  network.dial(alice.swarm().local_id(), bob.swarm().local_id());
  sim.run();
  Message message;
  message.protocol = "/test/1.0.0";
  message.body = 42;
  network.send(alice.swarm().local_id(), bob.swarm().local_id(), message);
  EXPECT_TRUE(bob.received.empty());  // not synchronous
  sim.run();
  ASSERT_EQ(bob.received.size(), 1u);
  EXPECT_EQ(bob.received[0].first, alice.swarm().local_id());
  EXPECT_EQ(bob.received[0].second, "/test/1.0.0");
}

TEST_F(NetworkTest, MessageDroppedWhenNotConnected) {
  Message message;
  message.protocol = "/test/1.0.0";
  network.send(alice.swarm().local_id(), bob.swarm().local_id(), message);
  sim.run();
  EXPECT_TRUE(bob.received.empty());
}

TEST_F(NetworkTest, DisconnectMirrorsToRemoteSide) {
  network.dial(alice.swarm().local_id(), bob.swarm().local_id());
  sim.run();
  network.disconnect(alice.swarm().local_id(), bob.swarm().local_id(),
                     CloseReason::kLocalClose);
  EXPECT_EQ(alice.swarm().open_count(), 0u);  // local close is synchronous
  sim.run();                                  // mirror arrives after latency
  EXPECT_EQ(bob.swarm().open_count(), 0u);
  EXPECT_FALSE(network.connected(alice.swarm().local_id(), bob.swarm().local_id()));
}

TEST_F(NetworkTest, LocalTrimSeenAsRemoteTrimByPeer) {
  network.dial(alice.swarm().local_id(), bob.swarm().local_id());
  sim.run();

  struct ReasonLog : p2p::SwarmObserver {
    CloseReason last = CloseReason::kNone;
    void on_connection_opened(const p2p::Connection&) override {}
    void on_connection_closed(const p2p::Connection& connection) override {
      last = connection.reason;
    }
  } bob_log;
  bob.swarm().add_observer(&bob_log);

  // Alice's connection manager trims the connection.
  const auto id = alice.swarm().open_connections()[0]->id;
  alice.swarm().close_connection(id, CloseReason::kLocalTrim);
  sim.run();
  EXPECT_EQ(bob_log.last, CloseReason::kRemoteTrim);
  bob.swarm().remove_observer(&bob_log);
}

TEST_F(NetworkTest, RemoveHostClosesConnectionsAsPeerOffline) {
  network.dial(alice.swarm().local_id(), bob.swarm().local_id());
  network.dial(carol.swarm().local_id(), bob.swarm().local_id());
  sim.run();
  EXPECT_EQ(bob.swarm().open_count(), 2u);

  network.remove_host(bob.swarm().local_id());
  EXPECT_FALSE(network.online(bob.swarm().local_id()));
  sim.run();
  EXPECT_EQ(alice.swarm().open_count(), 0u);
  EXPECT_EQ(carol.swarm().open_count(), 0u);
}

TEST_F(NetworkTest, MessageInFlightToDepartedHostIsDropped) {
  network.dial(alice.swarm().local_id(), bob.swarm().local_id());
  sim.run();
  Message message;
  message.protocol = "/test/1.0.0";
  network.send(alice.swarm().local_id(), bob.swarm().local_id(), message);
  network.remove_host(bob.swarm().local_id());
  sim.run();
  EXPECT_TRUE(bob.received.empty());
}

TEST_F(NetworkTest, LatencyIsSymmetricAndPositive) {
  const auto ab = network.latency(alice.swarm().local_id(), bob.swarm().local_id());
  EXPECT_GT(ab, 0);
  EXPECT_LE(ab, 200 * common::kMillisecond);
}

TEST(NetworkTrim, DialsThatTrimOtherLinksKeepTheLinkTableConsistent) {
  // The listener trims to 2 whenever it holds more than 3 connections, with
  // no grace period, so the inbound open inside each Network::dial closes
  // other links, or this one, while the dial is still registering it.
  sim::Simulation sim;
  p2p::ConnManagerConfig trimming = p2p::ConnManagerConfig::with_watermarks(2, 3);
  trimming.grace_period = 0;
  std::vector<std::unique_ptr<ipfs::testing::ScriptedHost>> hosts;
  hosts.push_back(std::make_unique<ipfs::testing::ScriptedHost>(
      sim, 1, p2p::Swarm::Config{trimming, true}));
  for (std::uint64_t seed = 2; seed <= 24; ++seed) {
    hosts.push_back(std::make_unique<ipfs::testing::ScriptedHost>(sim, seed));
  }
  Network network(sim, common::Rng(7));
  for (const auto& host : hosts) network.add_host(*host);
  const PeerId listener = hosts[0]->id();

  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 1; i < hosts.size(); ++i) network.dial(hosts[i]->id(), listener);
    sim.run();
    EXPECT_LE(hosts[0]->swarm().open_count(), 3u);
    std::size_t linked = 0;
    for (std::size_t i = 1; i < hosts.size(); ++i) {
      const bool link = network.connected(hosts[i]->id(), listener);
      EXPECT_EQ(link, hosts[i]->swarm().connected_to(listener)) << "host " << i;
      EXPECT_EQ(link, hosts[0]->swarm().connected_to(hosts[i]->id())) << "host " << i;
      linked += link ? 1 : 0;
    }
    EXPECT_EQ(linked, hosts[0]->swarm().open_count());
  }
  EXPECT_GT(hosts[0]->swarm().opened_total(), 3 * (hosts.size() - 1) / 2);
}

TEST(LatencyModel, DeterministicBasePerPair) {
  LatencyModel model;
  common::Rng rng(1);
  model.jitter_fraction = 0.0;
  const auto a = p2p::PeerId::from_seed(1);
  const auto b = p2p::PeerId::from_seed(2);
  EXPECT_EQ(model.one_way(a, b, rng), model.one_way(a, b, rng));
  EXPECT_EQ(model.one_way(a, b, rng), model.one_way(b, a, rng));
}

}  // namespace
}  // namespace ipfs::net
