#include "crawler/crawler.hpp"

#include <gtest/gtest.h>

#include "../testing/fidelity.hpp"

namespace ipfs::crawler {
namespace {

using common::kMinute;
using common::kSecond;
using ipfs::testing::FidelityNet;

class CrawlerTest : public ::testing::Test {
 protected:
  /// Build a small interconnected DHT of `servers` servers + `clients`
  /// clients and return a started crawler.
  std::unique_ptr<Crawler> make_network(int servers, int clients,
                                        CrawlerConfig config = {}) {
    for (int i = 0; i < servers; ++i) net.add_node(node::NodeConfig::dht_server());
    for (int i = 0; i < clients; ++i) net.add_node(node::NodeConfig::dht_client());
    net.bootstrap_all(time_to_settle);
    net.sim().run_until(net.sim().now() + 10 * kMinute);  // refresh cycles
    auto crawler = std::make_unique<Crawler>(
        net.sim(), net.network(), p2p::PeerId::random(net.rng()),
        net::swarm_tcp_addr(net.ips().unique_v4()), config);
    crawler->start();
    return crawler;
  }

  FidelityNet net;
  common::SimDuration time_to_settle = 2 * kMinute;
};

TEST_F(CrawlerTest, CrawlReachesAllServers) {
  auto crawler = make_network(25, 0);
  CrawlResult result;
  bool done = false;
  crawler->crawl({net.node(0).id()}, [&](CrawlResult r) {
    done = true;
    result = std::move(r);
  });
  net.sim().run_until(net.sim().now() + 30 * kMinute);
  ASSERT_TRUE(done);
  EXPECT_EQ(result.reached.size(), 25u);
  EXPECT_GE(result.queries_sent, 25u);
  EXPECT_GT(result.finished, result.started);
  crawler->stop();
}

TEST_F(CrawlerTest, ClientsAreInvisibleToCrawls) {
  auto crawler = make_network(10, 8);
  CrawlResult result;
  crawler->crawl({net.node(0).id()}, [&](CrawlResult r) { result = std::move(r); });
  net.sim().run_until(net.sim().now() + 30 * kMinute);
  // Only the 10 servers answer FIND_NODE; the 8 clients never appear as
  // reached peers (the paper's core passive-vs-active horizon gap).
  EXPECT_EQ(result.reached.size(), 10u);
  for (std::size_t i = 10; i < 18; ++i) {
    EXPECT_FALSE(result.reached.contains(net.node(i).id()));
  }
  crawler->stop();
}

TEST_F(CrawlerTest, OfflineNodesCountAsDialFailures) {
  auto crawler = make_network(12, 0);
  // Take three servers down right before the crawl; their routing-table
  // entries still point at them.
  net.node(3).stop();
  net.node(4).stop();
  net.node(5).stop();
  net.sim().run_until(net.sim().now() + 30 * kSecond);

  CrawlResult result;
  crawler->crawl({net.node(0).id()}, [&](CrawlResult r) { result = std::move(r); });
  net.sim().run_until(net.sim().now() + 40 * kMinute);
  EXPECT_EQ(result.reached.size(), 9u);
  EXPECT_GE(result.dial_failures, 1u);
  // The dead peers may still be *learned* from stale tables.
  EXPECT_GE(result.learned.size(), result.reached.size());
  crawler->stop();
}

TEST_F(CrawlerTest, CrawlerConnectionsAreShortLived) {
  auto crawler = make_network(10, 0);
  CrawlResult result;
  crawler->crawl({net.node(0).id()}, [&](CrawlResult r) { result = std::move(r); });
  net.sim().run_until(net.sim().now() + 30 * kMinute);
  // After the crawl the crawler holds no connections: visit -> query ->
  // disconnect, the behaviour the paper attributes to crawler churn.
  EXPECT_EQ(crawler->swarm().open_count(), 0u);
  EXPECT_GE(crawler->swarm().opened_total(), result.reached.size());
  crawler->stop();
}

TEST_F(CrawlerTest, EmptyBootstrapFinishesEmpty) {
  auto crawler = make_network(3, 0);
  bool done = false;
  CrawlResult result;
  crawler->crawl({}, [&](CrawlResult r) {
    done = true;
    result = std::move(r);
  });
  net.sim().run_until(net.sim().now() + kMinute);
  EXPECT_TRUE(done);
  EXPECT_TRUE(result.reached.empty());
  crawler->stop();
}

}  // namespace
}  // namespace ipfs::crawler
