// End-to-end protocol-fidelity test: a message-level IPFS network with
// servers, clients, a hydra and an active crawler — the full §III setup at
// small scale, assembled through the `ipfs::runtime` facade.
#include <gtest/gtest.h>

#include "runtime/testbed.hpp"

namespace ipfs {
namespace {

using common::kMinute;
using common::kSecond;

/// Count peer-offline closes in a dataset.
std::size_t analysis_reason_count(const measure::Dataset& dataset) {
  std::size_t count = 0;
  for (const auto& record : dataset.connections()) {
    if (record.reason == p2p::CloseReason::kPeerOffline) ++count;
  }
  return count;
}

TEST(FidelityIntegration, PassiveMeasurementObservesLiveNetwork) {
  auto testbed = runtime::TestbedBuilder().seed(99).build();

  // The measurement node: a go-ipfs DHT server, as in §III-A.
  auto vantage = testbed.add_server();
  measure::RecorderConfig recorder_config;
  recorder_config.vantage = "go-ipfs";
  recorder_config.quantize = false;
  measure::Recorder& recorder = vantage.attach_recorder(recorder_config);

  // The network: 15 servers, 5 clients, everyone bootstrapping via the
  // vantage (it is a bootstrap node from the network's perspective).
  testbed.add_servers(15).add_clients(5).bootstrap_all_via(vantage);
  testbed.run_until(20 * kMinute);

  // One server leaves mid-measurement (node churn, not connection churn).
  testbed.node(4).stop();
  testbed.run_for(10 * kMinute);

  recorder.finish();
  const measure::Dataset& dataset = recorder.dataset();

  // The vantage saw every peer that dialed it, with agents and protocols.
  EXPECT_GE(dataset.peer_count(), 20u);
  EXPECT_GT(dataset.connection_count(), 0u);
  std::size_t servers_seen = 0;
  std::size_t identified = 0;
  for (const auto& peer : dataset.peers()) {
    if (peer.ever_dht_server) ++servers_seen;
    if (!peer.agent_history.empty()) ++identified;
  }
  EXPECT_GE(servers_seen, 15u);
  EXPECT_GE(identified, 20u);

  // The departed node's connection closed as peer-offline.
  const auto reasons = analysis_reason_count(dataset);
  EXPECT_GE(reasons, 1u);
}

TEST(FidelityIntegration, CrawlerAndPassiveHorizonsDiffer) {
  auto testbed = runtime::TestbedBuilder().seed(99).build();
  auto vantage = testbed.add_server();

  constexpr int kServers = 12;
  constexpr int kClients = 8;
  testbed.add_servers(kServers).add_clients(kClients).bootstrap_all_via(vantage);
  testbed.run_until(20 * kMinute);

  crawler::Crawler& crawler = testbed.add_crawler();
  crawler::CrawlResult crawl;
  crawler.crawl({vantage.id()}, [&](crawler::CrawlResult r) { crawl = std::move(r); });
  testbed.run_for(30 * kMinute);

  // Active view: DHT servers only (vantage + the 12 servers).
  EXPECT_EQ(crawl.reached.size(), kServers + 1u);

  // Passive view: the vantage's peerstore holds clients too.
  std::size_t clients_seen = 0;
  for (const auto& entry : vantage.swarm().peerstore().entries()) {
    if (!entry.ever_dht_server && !entry.agent.empty()) ++clients_seen;
  }
  EXPECT_GE(clients_seen, static_cast<std::size_t>(kClients));
  crawler.stop();
}

TEST(FidelityIntegration, CrawlerStreamsObservationsIntoSink) {
  auto testbed = runtime::TestbedBuilder().seed(31).build();
  auto vantage = testbed.add_server();
  testbed.add_servers(8).bootstrap_all_via(vantage);
  testbed.run_until(20 * kMinute);

  measure::CollectingSink sink;
  crawler::Crawler& crawler = testbed.add_crawler();
  crawler.set_sink(&sink);
  crawler.crawl({vantage.id()}, {});
  testbed.run_for(30 * kMinute);

  ASSERT_EQ(sink.crawls().size(), 1u);
  EXPECT_EQ(sink.crawls().front().reached_servers, 9u);
  EXPECT_GE(sink.crawls().front().learned_pids,
            sink.crawls().front().reached_servers);
  crawler.stop();
}

TEST(FidelityIntegration, HydraHeadsWidenTheHorizon) {
  auto testbed = runtime::TestbedBuilder().seed(99).build();
  auto bootstrap_node = testbed.add_server();

  hydra::HydraConfig hydra_config;
  hydra_config.head_count = 2;
  hydra::HydraNode& hydra = testbed.add_hydra(hydra_config);
  hydra.bootstrap({bootstrap_node.id()});

  for (int i = 0; i < 16; ++i) {
    testbed.add_server().bootstrap({bootstrap_node.id()});
  }
  testbed.run_until(30 * kMinute);

  // Both heads participate in the DHT and collect peers; the union covers
  // at least what the single bootstrap node collected via inbound dials.
  EXPECT_GT(hydra.union_known_pids().size(), 2u);
  EXPECT_GT(hydra.head(0).dht().routing_table().size(), 0u);
  EXPECT_GT(hydra.head(1).dht().routing_table().size(), 0u);
  hydra.stop();
}

TEST(FidelityIntegration, TrimmingCausesConnectionChurnNotNodeChurn) {
  // The paper's headline finding at protocol fidelity: every node stays
  // online, yet connections churn because of the connection manager.
  auto testbed = runtime::TestbedBuilder().seed(99).build();
  auto vantage = testbed.add_server(node::NodeConfig::dht_server(3, 5));
  measure::RecorderConfig recorder_config;
  recorder_config.quantize = false;
  measure::Recorder& recorder = vantage.attach_recorder(recorder_config);

  testbed.add_clients(10).bootstrap_all_via(vantage);
  testbed.run_until(30 * kMinute);
  recorder.finish();

  const auto reasons = [&] {
    std::size_t trims = 0;
    for (const auto& record : recorder.dataset().connections()) {
      if (record.reason == p2p::CloseReason::kLocalTrim) ++trims;
    }
    return trims;
  }();
  // No node ever left, yet the vantage closed connections by trimming.
  EXPECT_GT(reasons, 0u);
  EXPECT_LE(vantage.swarm().open_count(), 5u);
}

}  // namespace
}  // namespace ipfs
