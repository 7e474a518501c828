#include "measure/recorder.hpp"

#include <gtest/gtest.h>

#include "p2p/protocols.hpp"

namespace ipfs::measure {
namespace {

using common::kMinute;
using common::kSecond;
/// A protocol list as identify hands it to set_protocols.
using Names = std::vector<std::string_view>;

class RecorderTest : public ::testing::Test {
 protected:
  RecorderTest()
      : swarm(sim, p2p::PeerId::from_seed(1),
              p2p::Multiaddr{p2p::IpAddress::v4(1), p2p::Transport::kTcp, 4001},
              {p2p::ConnManagerConfig::with_watermarks(0, 0), false}) {}

  Recorder make_recorder(bool quantize = true) {
    RecorderConfig config;
    config.vantage = "test";
    config.poll_interval = 30 * kSecond;
    config.quantize = quantize;
    return Recorder(sim, swarm, config);
  }

  p2p::Multiaddr addr(std::uint32_t ip) {
    return p2p::Multiaddr{p2p::IpAddress::v4(ip), p2p::Transport::kTcp, 4001};
  }

  sim::Simulation sim;
  p2p::Swarm swarm;
};

TEST_F(RecorderTest, RecordsClosedConnection) {
  Recorder recorder = make_recorder(/*quantize=*/false);
  recorder.start();
  const auto pid = p2p::PeerId::from_seed(2);
  const auto id = swarm.open_connection(pid, addr(2), p2p::Direction::kInbound);
  sim.run_until(90 * kSecond);
  swarm.close_connection(id, p2p::CloseReason::kRemoteTrim);
  recorder.finish();

  const Dataset& dataset = recorder.dataset();
  EXPECT_EQ(dataset.peer_count(), 1u);
  ASSERT_EQ(dataset.connection_count(), 1u);
  const ConnRecord& record = dataset.connections()[0];
  EXPECT_EQ(record.opened, 0);
  EXPECT_EQ(record.closed, 90 * kSecond);
  EXPECT_EQ(record.reason, p2p::CloseReason::kRemoteTrim);
  EXPECT_EQ(record.direction, p2p::Direction::kInbound);
}

TEST_F(RecorderTest, QuantizationRoundsUpToPollTicks) {
  Recorder recorder = make_recorder(/*quantize=*/true);
  recorder.start();
  sim.run_until(10 * kSecond);
  const auto id = swarm.open_connection(p2p::PeerId::from_seed(2), addr(2),
                                        p2p::Direction::kInbound);
  sim.run_until(95 * kSecond);
  swarm.close_connection(id, p2p::CloseReason::kRemoteClose);
  recorder.finish();
  const ConnRecord& record = recorder.dataset().connections()[0];
  // A 30 s poller first sees the open at t=30 s and the close at t=120 s.
  EXPECT_EQ(record.opened, 30 * kSecond);
  EXPECT_EQ(record.closed, 120 * kSecond);
}

TEST_F(RecorderTest, OpenConnectionsClosedAtMeasurementEnd) {
  Recorder recorder = make_recorder();
  recorder.start();
  swarm.open_connection(p2p::PeerId::from_seed(2), addr(2), p2p::Direction::kInbound);
  sim.run_until(10 * kMinute);
  recorder.finish();
  ASSERT_EQ(recorder.dataset().connection_count(), 1u);
  const ConnRecord& record = recorder.dataset().connections()[0];
  EXPECT_EQ(record.reason, p2p::CloseReason::kMeasurementEnd);
  EXPECT_EQ(record.closed, 10 * kMinute);
}

TEST_F(RecorderTest, IgnoresEventsBeforeStartAndAfterFinish) {
  Recorder recorder = make_recorder();
  // Connection opened before start: its close is not recorded.
  const auto early = swarm.open_connection(p2p::PeerId::from_seed(2), addr(2),
                                           p2p::Direction::kInbound);
  recorder.start();
  swarm.close_connection(early, p2p::CloseReason::kRemoteClose);
  recorder.finish();
  // After finish new activity is ignored.
  swarm.open_connection(p2p::PeerId::from_seed(3), addr(3), p2p::Direction::kInbound);
  EXPECT_EQ(recorder.dataset().connection_count(), 0u);
}

TEST_F(RecorderTest, CapturesConnectedIps) {
  Recorder recorder = make_recorder();
  recorder.start();
  const auto pid = p2p::PeerId::from_seed(2);
  swarm.open_connection(pid, addr(10), p2p::Direction::kInbound);
  swarm.open_connection(pid, addr(20), p2p::Direction::kInbound);
  recorder.finish();
  const PeerRecord* record = recorder.dataset().find(pid);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->connected_ips.size(), 2u);
}

TEST_F(RecorderTest, AgentHistoryFromPeerstore) {
  Recorder recorder = make_recorder(/*quantize=*/false);
  recorder.start();
  const auto pid = p2p::PeerId::from_seed(2);
  swarm.peerstore().set_agent(pid, "go-ipfs/0.10.0/a", sim.now());
  sim.run_until(5 * kMinute);
  swarm.peerstore().set_agent(pid, "go-ipfs/0.11.0/b", sim.now());
  recorder.finish();
  const PeerRecord* record = recorder.dataset().find(pid);
  ASSERT_NE(record, nullptr);
  ASSERT_EQ(record->agent_history.size(), 2u);
  const Dataset& dataset = recorder.dataset();
  EXPECT_EQ(dataset.agent_name(record->agent_history[0].agent), "go-ipfs/0.10.0/a");
  EXPECT_EQ(dataset.agent_name(record->agent_history[1].agent), "go-ipfs/0.11.0/b");
  EXPECT_EQ(record->agent_history[1].at, 5 * kMinute);
}

TEST_F(RecorderTest, ProtocolEventsAndServerFlag) {
  Recorder recorder = make_recorder(/*quantize=*/false);
  recorder.start();
  const auto pid = p2p::PeerId::from_seed(2);
  const std::string kad(p2p::protocols::kKad);
  swarm.peerstore().set_protocols(pid, Names{kad}, sim.now());
  sim.run_until(kMinute);
  swarm.peerstore().set_protocols(pid, {}, sim.now());
  recorder.finish();
  const PeerRecord* record = recorder.dataset().find(pid);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->ever_dht_server);
  ASSERT_EQ(record->protocol_events.size(), 2u);
  EXPECT_TRUE(record->protocol_events[0].added);
  EXPECT_FALSE(record->protocol_events[1].added);
  const auto kad_id = recorder.dataset().find_protocol(kad);
  ASSERT_TRUE(kad_id.has_value());
  EXPECT_EQ(record->protocols_ever, std::vector<ProtocolId>{*kad_id});
  EXPECT_EQ(record->protocol_events[0].protocol, *kad_id);
  EXPECT_EQ(record->protocol_events[1].protocol, *kad_id);
}

TEST_F(RecorderTest, InternsEachNameOncePerDataset) {
  Recorder recorder = make_recorder(/*quantize=*/false);
  recorder.start();
  const std::string kad(p2p::protocols::kKad);
  const std::string ping(p2p::protocols::kPing);
  for (const std::uint64_t seed : {2, 3}) {
    const auto pid = p2p::PeerId::from_seed(seed);
    swarm.peerstore().set_agent(pid, "go-ipfs/0.11.0/b", sim.now());
    swarm.peerstore().set_protocols(pid, Names{ping, kad}, sim.now());
    swarm.open_connection(pid, addr(7), p2p::Direction::kInbound);
  }
  recorder.finish();
  const Dataset& dataset = recorder.dataset();
  EXPECT_EQ(dataset.agent_count(), 1u);
  EXPECT_EQ(dataset.protocol_count(), 2u);
  EXPECT_EQ(dataset.ip_count(), 1u);
  const PeerRecord* a = dataset.find(p2p::PeerId::from_seed(2));
  const PeerRecord* b = dataset.find(p2p::PeerId::from_seed(3));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->protocols_ever.size(), 2u);
  EXPECT_EQ(a->protocols_ever, b->protocols_ever);
  EXPECT_EQ(a->connected_ips, b->connected_ips);
  EXPECT_EQ(dataset.ip(a->connected_ips.front()), p2p::IpAddress::v4(7));
  EXPECT_EQ(dataset.current_agent(*b), "go-ipfs/0.11.0/b");
}

TEST_F(RecorderTest, DestroyedRecorderDetachesFromPeerstore) {
  {
    Recorder gone = make_recorder();
    gone.start();
  }
  // Were the destroyed recorder still registered, each of these calls
  // would go through a dangling observer (ASan: stack-use-after-scope).
  Recorder recorder = make_recorder(/*quantize=*/false);
  recorder.start();
  const auto pid = p2p::PeerId::from_seed(2);
  swarm.peerstore().touch(pid, sim.now());
  swarm.peerstore().set_agent(pid, "go-ipfs/0.11.0/a", sim.now());
  swarm.peerstore().set_protocols(pid, Names{p2p::protocols::kKad}, sim.now());
  swarm.peerstore().add_address(pid, addr(2), sim.now());
  recorder.finish();
  const PeerRecord* record = recorder.dataset().find(pid);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->agent_history.size(), 1u);
  EXPECT_EQ(record->protocol_events.size(), 1u);
}

TEST_F(RecorderTest, TakeDatasetMovesOut) {
  Recorder recorder = make_recorder();
  recorder.start();
  swarm.open_connection(p2p::PeerId::from_seed(2), addr(2), p2p::Direction::kInbound);
  recorder.finish();
  Dataset dataset = recorder.take_dataset();
  EXPECT_EQ(dataset.peer_count(), 1u);
}

TEST_F(RecorderTest, SlotIndexResetsWithTheDataset) {
  // The recorder caches peerstore slot -> dataset index and the store's
  // protocol ids -> the dataset's.  Both must start over with each new
  // dataset: after a take mid-recording, and after a second start().
  Recorder recorder = make_recorder(/*quantize=*/false);
  recorder.start();
  const std::string kad(p2p::protocols::kKad);
  const std::string ping(p2p::protocols::kPing);
  const auto identify = [&](std::uint64_t seed, const Names& protocols) {
    const auto pid = p2p::PeerId::from_seed(seed);
    const auto id = swarm.open_connection(pid, addr(static_cast<std::uint32_t>(seed)),
                                          p2p::Direction::kInbound);
    swarm.peerstore().set_agent(pid, "go-ipfs/0.11.0/" + std::to_string(seed), sim.now());
    swarm.peerstore().set_protocols(pid, protocols, sim.now());
    return id;
  };
  // Slots 0 and 1, and both protocol names, enter the caches.
  identify(2, Names{ping});
  const auto open = identify(3, Names{kad, ping});

  const auto expect_fresh = [&](const Dataset& dataset, std::uint64_t first_seed) {
    ASSERT_EQ(dataset.peer_count(), 2u);
    for (PeerIndex index = 0; index < 2; ++index) {
      const PeerRecord& record = dataset.record(index);
      const std::uint64_t seed = first_seed + index;
      EXPECT_EQ(record.pid, p2p::PeerId::from_seed(seed)) << index;
      EXPECT_EQ(dataset.current_agent(record), "go-ipfs/0.11.0/" + std::to_string(seed));
      EXPECT_EQ(record.connected_ips.size(), 1u);
    }
    // Peer first_seed announced kad only, so the table holds only kad.
    ASSERT_EQ(dataset.protocol_count(), 1u);
    EXPECT_EQ(dataset.protocol_name(0), kad);
    EXPECT_EQ(dataset.record(0).protocols_ever, std::vector<ProtocolId>{0});
    EXPECT_TRUE(dataset.record(0).ever_dht_server);
    EXPECT_TRUE(dataset.record(1).protocols_ever.empty());
  };

  const Dataset first = recorder.take_dataset();
  EXPECT_EQ(first.peer_count(), 2u);
  // New peers in slots 2 and 3; peer 4 announces kad (a cached store id).
  identify(4, Names{kad});
  identify(5, {});
  // The connection opened before the take is not part of the new dataset.
  swarm.close_connection(open, p2p::CloseReason::kRemoteClose);
  EXPECT_EQ(recorder.dataset().connection_count(), 0u);
  expect_fresh(recorder.take_dataset(), 4);

  recorder.finish();
  recorder.start();
  identify(6, Names{kad});
  identify(7, {});
  recorder.finish();
  expect_fresh(recorder.dataset(), 6);
  EXPECT_EQ(recorder.dataset().connection_count(), 2u);
}

TEST_F(RecorderTest, MeasurementWindowRecorded) {
  Recorder recorder = make_recorder();
  sim.run_until(kMinute);
  recorder.start();
  sim.run_until(11 * kMinute);
  recorder.finish();
  EXPECT_EQ(recorder.dataset().measurement_start, kMinute);
  EXPECT_EQ(recorder.dataset().measurement_end, 11 * kMinute);
  EXPECT_EQ(recorder.dataset().duration(), 10 * kMinute);
}

}  // namespace
}  // namespace ipfs::measure
