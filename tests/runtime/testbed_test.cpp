// Tests for the `ipfs::runtime` facade: quickstart-shaped smoke coverage,
// determinism of the seed-derived RNG tree, sink publication, and a pinned
// export digest.
#include "runtime/testbed.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "common/rng.hpp"

namespace ipfs::runtime {
namespace {

using common::kMinute;

struct QuickstartCounters {
  std::size_t peers = 0;
  std::size_t connections = 0;
  std::size_t servers_seen = 0;
  std::size_t events = 0;
};

/// The quickstart example in miniature: one low-watermark vantage with a
/// recorder, 10 servers + 5 clients bootstrapping through it.
QuickstartCounters run_quickstart(std::uint64_t seed) {
  auto testbed = TestbedBuilder().seed(seed).build();
  auto vantage = testbed.add_server(node::NodeConfig::dht_server(8, 12));
  measure::Recorder& recorder = vantage.attach_recorder();
  testbed.add_servers(10).add_clients(5).bootstrap_all_via(vantage);
  testbed.run_for(30 * kMinute);
  recorder.finish();

  QuickstartCounters counters;
  counters.peers = recorder.dataset().peer_count();
  counters.connections = recorder.dataset().connection_count();
  for (const auto& peer : recorder.dataset().peers()) {
    if (peer.ever_dht_server) ++counters.servers_seen;
  }
  counters.events = testbed.simulation().executed_events();
  return counters;
}

TEST(Testbed, QuickstartSmoke) {
  const auto counters = run_quickstart(42);
  EXPECT_GE(counters.peers, 15u);
  EXPECT_GT(counters.connections, 0u);
  EXPECT_GE(counters.servers_seen, 10u);
  EXPECT_GT(counters.events, 100u);
}

TEST(Testbed, SameSeedRunsAreIdentical) {
  const auto a = run_quickstart(7);
  const auto b = run_quickstart(7);
  EXPECT_EQ(a.peers, b.peers);
  EXPECT_EQ(a.connections, b.connections);
  EXPECT_EQ(a.servers_seen, b.servers_seen);
  EXPECT_EQ(a.events, b.events);
}

TEST(Testbed, DifferentSeedsProduceDifferentNetworks) {
  auto testbed_a = TestbedBuilder().seed(1).build();
  auto testbed_b = TestbedBuilder().seed(2).build();
  EXPECT_NE(testbed_a.add_server().id(), testbed_b.add_server().id());
}

TEST(Testbed, NodesGetDistinctIdentitiesAndAddresses) {
  auto testbed = TestbedBuilder().seed(3).build();
  auto a = testbed.add_server();
  auto b = testbed.add_client();
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(a.swarm().listen_address().ip, b.swarm().listen_address().ip);
  EXPECT_EQ(testbed.node_count(), 2u);
  EXPECT_EQ(testbed.node(0).id(), a.id());
}

TEST(Testbed, BootstrapAllViaSkipsVantageAndAlreadyBootstrapped) {
  auto testbed = TestbedBuilder().seed(4).build();
  auto vantage = testbed.add_server();
  auto early = testbed.add_server();
  early.bootstrap({vantage.id()});
  testbed.add_servers(4).bootstrap_all_via(vantage);
  testbed.run_for(5 * kMinute);
  // Everyone (and only everyone else) connected through the vantage.
  EXPECT_GE(vantage.swarm().peerstore().size(), 5u);
}

TEST(Testbed, RecordersPublishThroughSink) {
  auto testbed = TestbedBuilder().seed(5).build();
  auto vantage = testbed.add_server();
  vantage.attach_recorder();
  EXPECT_TRUE(vantage.has_recorder());
  testbed.add_servers(5).bootstrap_all_via(vantage);
  testbed.run_for(10 * kMinute);

  measure::CollectingSink sink;
  testbed.publish_recorders(sink);
  ASSERT_EQ(sink.datasets().size(), 1u);
  EXPECT_EQ(sink.datasets().front().role, measure::DatasetRole::kOther);
  EXPECT_GE(sink.datasets().front().dataset.peer_count(), 5u);
}

TEST(Testbed, HydraAndCrawlerHandles) {
  auto testbed = TestbedBuilder().seed(6).build();
  auto bootstrap_node = testbed.add_server();
  hydra::HydraConfig hydra_config;
  hydra_config.head_count = 2;
  hydra::HydraNode& hydra = testbed.add_hydra(hydra_config);
  hydra.bootstrap({bootstrap_node.id()});
  testbed.add_servers(6).bootstrap_all_via(bootstrap_node);
  testbed.run_for(10 * kMinute);

  crawler::Crawler& crawler = testbed.add_crawler();
  crawler::CrawlResult crawl;
  crawler.crawl({bootstrap_node.id()},
                [&](crawler::CrawlResult r) { crawl = std::move(r); });
  testbed.run_for(10 * kMinute);

  EXPECT_EQ(hydra.head_count(), 2u);
  EXPECT_GT(hydra.union_known_pids().size(), 0u);
  // The crawler reaches the bootstrap node, the servers and both heads.
  EXPECT_GE(crawl.reached.size(), 7u);
  crawler.stop();
  hydra.stop();
}

TEST(Testbed, UnstoppedCrawlerDestructsCleanly) {
  // A crawler left registered deregisters itself when the testbed tears
  // it down, before the nodes whose teardown closes its connections.
  {
    auto testbed = TestbedBuilder().seed(8).build();
    auto bootstrap_node = testbed.add_server();
    testbed.add_servers(4).bootstrap_all_via(bootstrap_node);
    crawler::Crawler& crawler = testbed.add_crawler();
    crawler.crawl({bootstrap_node.id()}, [](crawler::CrawlResult) {});
    testbed.run_for(10 * kMinute);
    EXPECT_TRUE(testbed.network().online(crawler.swarm().local_id()));
  }
  SUCCEED();
}

TEST(Testbed, ExportMatchesPinnedDigest) {
  // FNV-1a (common::hash64) of the vantage's JSON export for a fixed mix
  // of servers, clients, a hydra and a crawler.  Every node identity,
  // address, latency sample and close reason feeds these bytes, so a
  // refactor of the facade that moves any RNG branch or wiring step shows
  // here.  A change of this constant is a determinism regression, not a
  // value to refresh.
  auto testbed = TestbedBuilder().seed(2021).build();
  auto vantage = testbed.add_server(node::NodeConfig::dht_server(8, 12));
  vantage.attach_recorder();
  testbed.add_servers(8).add_clients(4).bootstrap_all_via(vantage);
  hydra::HydraConfig hydra_config;
  hydra_config.head_count = 2;
  hydra::HydraNode& hydra = testbed.add_hydra(hydra_config);
  hydra.bootstrap({vantage.id()});
  testbed.run_for(10 * kMinute);
  crawler::Crawler& crawler = testbed.add_crawler();
  crawler.crawl({vantage.id()}, [](crawler::CrawlResult) {});
  testbed.run_for(20 * kMinute);
  crawler.stop();
  hydra.stop();

  std::ostringstream out;
  {
    measure::JsonExportSink sink(
        out, measure::JsonExportSink::Options{.include_connections = true});
    testbed.publish_recorders(sink);
  }
  const std::string exported = out.str();
  ASSERT_FALSE(exported.empty());
  EXPECT_EQ(common::hash64(exported), 0x2e523778b7064196ULL)
      << "testbed export drifted: " << exported.size() << " bytes";
}

}  // namespace
}  // namespace ipfs::runtime
