#include "net/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "testing/hosts.hpp"

namespace ipfs::net {
namespace {

using common::kSecond;
using common::SimTime;
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

/// A bare endpoint: an id, an address and a message log, and no swarm.
struct BareHost : Host {
  explicit BareHost(std::uint64_t seed)
      : id(PeerId::from_seed(seed)),
        address{p2p::IpAddress::v4(static_cast<std::uint32_t>(seed)),
                p2p::Transport::kTcp, 4001} {}

  Endpoint endpoint() override { return {id, address, nullptr}; }
  void handle_message(const PeerId& from, const Message& message) override {
    received.emplace_back(from, message.protocol);
  }

  PeerId id;
  p2p::Multiaddr address;
  std::vector<std::pair<PeerId, std::string>> received;
};

/// Every close a swarm reports, with its time and reason.
struct CloseLog : p2p::SwarmObserver {
  explicit CloseLog(sim::Simulation& sim) : sim(sim) {}
  void on_connection_opened(const p2p::Connection&) override {}
  void on_connection_closed(const p2p::Connection& connection) override {
    closes.emplace_back(sim.now(), connection.reason);
  }
  sim::Simulation& sim;
  std::vector<std::pair<SimTime, CloseReason>> closes;
};

/// A swarm-backed listener (seed 1) and one dialer (seed 2) on a fabric:
/// either a bare endpoint or a swarm-backed host of the same id and
/// address.  Hosts are declared before the network (the Host lifetime
/// contract).
struct DialerFabric {
  explicit DialerFabric(bool bare_dialer, ConditionModel conditions = ConditionModel{})
      : log(sim),
        listener(sim, 1),
        swarm_dialer(sim, 2),
        bare(2),
        network(sim, common::Rng(1), std::move(conditions)) {
    listener.swarm().add_observer(&log);
    network.add_host(listener);
    network.add_host(bare_dialer ? static_cast<Host&>(bare) : swarm_dialer);
  }
  ~DialerFabric() { listener.swarm().remove_observer(&log); }

  [[nodiscard]] PeerId dialer() const { return bare.id; }
  [[nodiscard]] const PeerId& listener_id() { return listener.id(); }
  void link() {
    network.dial(dialer(), listener_id());
    sim.run();
  }
  /// The listener's conn manager closes the link.
  void trim() {
    const p2p::ConnectionId id = listener.swarm().open_connections().at(0)->id;
    listener.swarm().close_connection(id, CloseReason::kLocalTrim);
  }

  sim::Simulation sim;
  CloseLog log;
  ipfs::testing::ScriptedHost listener;
  ipfs::testing::ScriptedHost swarm_dialer;
  BareHost bare;
  Network network;
};

TEST(BareEndpoint, DialOpensOnlyTheListenersConnection) {
  DialerFabric fabric(/*bare_dialer=*/true);
  bool success = false;
  fabric.network.dial(fabric.dialer(), fabric.listener_id(),
                      [&](bool ok) { success = ok; });
  fabric.sim.run();
  EXPECT_TRUE(success);
  EXPECT_TRUE(fabric.network.connected(fabric.dialer(), fabric.listener_id()));
  ASSERT_EQ(fabric.listener.swarm().open_count(), 1u);
  const p2p::Connection& connection = *fabric.listener.swarm().open_connections()[0];
  EXPECT_EQ(connection.remote, fabric.dialer());
  EXPECT_EQ(connection.remote_addr, fabric.bare.address);
  EXPECT_EQ(connection.direction, Direction::kInbound);
  // The swarm-backed twin of the same id is not registered and opened nothing.
  EXPECT_EQ(fabric.swarm_dialer.swarm().open_count(), 0u);
}

TEST(BareEndpoint, ListenerTrimDropsTheLinkAndSchedulesNothingForTheBareSide) {
  DialerFabric bare(/*bare_dialer=*/true);
  bare.link();
  bare.trim();
  EXPECT_FALSE(bare.network.connected(bare.dialer(), bare.listener_id()));
  EXPECT_EQ(bare.sim.pending_events(), 0u);

  // A swarm-backed dialer's side closes one latency later.
  DialerFabric backed(/*bare_dialer=*/false);
  backed.link();
  backed.trim();
  EXPECT_FALSE(backed.network.connected(backed.dialer(), backed.listener_id()));
  EXPECT_EQ(backed.sim.pending_events(), 1u);
  EXPECT_EQ(backed.swarm_dialer.swarm().open_count(), 1u);
  backed.sim.run();
  EXPECT_EQ(backed.swarm_dialer.swarm().open_count(), 0u);
}

TEST(BareEndpoint, BareAndSwarmDialersDrawTheSameLatencies) {
  // The same script on both kinds of dialer, one step per second (a bare
  // side's mirror is no event, so draining the queue would stop the clock
  // earlier): links, a listener trim, a dialer-side disconnect and a
  // departure.  The listener must see the same closes at the same times,
  // and the fabric RNG must stand at the same next draw.
  const auto script = [](DialerFabric& fabric) {
    SimTime step = 0;
    const auto next_step = [&] { fabric.sim.run_until(step += kSecond); };
    fabric.network.dial(fabric.dialer(), fabric.listener_id());
    next_step();
    fabric.trim();
    next_step();
    fabric.network.dial(fabric.dialer(), fabric.listener_id());
    next_step();
    fabric.network.disconnect(fabric.dialer(), fabric.listener_id());
    next_step();
    fabric.network.dial(fabric.dialer(), fabric.listener_id());
    next_step();
    fabric.network.remove_host(fabric.dialer());
    next_step();
  };
  DialerFabric bare(/*bare_dialer=*/true);
  DialerFabric backed(/*bare_dialer=*/false);
  script(bare);
  script(backed);
  ASSERT_EQ(bare.log.closes.size(), 3u);
  EXPECT_EQ(bare.log.closes, backed.log.closes);
  EXPECT_EQ(bare.log.closes[1].second, CloseReason::kRemoteClose);
  EXPECT_EQ(bare.log.closes[2].second, CloseReason::kPeerOffline);
  for (int draw = 0; draw < 4; ++draw) {
    EXPECT_EQ(bare.network.latency(bare.dialer(), bare.listener_id()),
              backed.network.latency(backed.dialer(), backed.listener_id()))
        << "draw " << draw;
  }
}

TEST(BareEndpoint, RemovalClosesTheListenerSideAsPeerOfflineAfterOneLatency) {
  ConditionSpec steady;
  steady.latency.jitter_fraction = 0.0;  // one latency per pair, every draw
  DialerFabric fabric(/*bare_dialer=*/true, ConditionModel(steady));
  fabric.link();
  const SimTime removed_at = fabric.sim.now();
  const auto one_way = fabric.network.latency(fabric.dialer(), fabric.listener_id());

  fabric.network.remove_host(fabric.dialer());
  EXPECT_FALSE(fabric.network.online(fabric.dialer()));
  EXPECT_FALSE(fabric.network.connected(fabric.dialer(), fabric.listener_id()));
  EXPECT_EQ(fabric.listener.swarm().open_count(), 1u);  // not yet mirrored
  fabric.sim.run();
  EXPECT_EQ(fabric.listener.swarm().open_count(), 0u);
  const std::vector<std::pair<SimTime, CloseReason>> expected = {
      {removed_at + one_way, CloseReason::kPeerOffline}};
  EXPECT_EQ(fabric.log.closes, expected);
}

TEST(BareEndpoint, SendToARemovedEndpointIsDropped) {
  DialerFabric fabric(/*bare_dialer=*/true);
  fabric.link();
  Message message;
  message.protocol = "/test/1.0.0";
  fabric.network.send(fabric.listener_id(), fabric.dialer(), message);
  fabric.sim.run();
  ASSERT_EQ(fabric.bare.received.size(), 1u);  // delivered while linked

  fabric.network.send(fabric.listener_id(), fabric.dialer(), message);  // in flight
  fabric.network.remove_host(fabric.dialer());
  fabric.network.send(fabric.listener_id(), fabric.dialer(), message);  // unlinked
  fabric.sim.run();
  EXPECT_EQ(fabric.bare.received.size(), 1u);
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
