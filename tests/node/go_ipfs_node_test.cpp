#include "node/go_ipfs_node.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../testing/fidelity.hpp"

namespace ipfs::node {
namespace {

using common::kMinute;
using common::kSecond;
using ipfs::testing::FidelityNet;
namespace proto = p2p::protocols;

TEST(GoIpfsNode, ConfigPresets) {
  const auto server = NodeConfig::dht_server(600, 900);
  EXPECT_EQ(server.dht_mode, dht::Mode::kServer);
  EXPECT_EQ(server.conn_manager.low_water, 600);
  EXPECT_EQ(server.conn_manager.high_water, 900);
  const auto client = NodeConfig::dht_client();
  EXPECT_EQ(client.dht_mode, dht::Mode::kClient);
}

TEST(GoIpfsNode, ServerAnnouncesKadClientDoesNot) {
  FidelityNet net;
  auto& server = net.add_node(NodeConfig::dht_server());
  auto& client = net.add_node(NodeConfig::dht_client());
  const auto server_protocols = server.announced_protocols();
  const auto client_protocols = client.announced_protocols();
  EXPECT_NE(std::find(server_protocols.begin(), server_protocols.end(),
                      std::string(proto::kKad)),
            server_protocols.end());
  EXPECT_EQ(std::find(client_protocols.begin(), client_protocols.end(),
                      std::string(proto::kKad)),
            client_protocols.end());
  // Both announce the core set.
  for (const auto* p : {&server_protocols, &client_protocols}) {
    EXPECT_NE(std::find(p->begin(), p->end(), std::string(proto::kIdentify)), p->end());
    EXPECT_NE(std::find(p->begin(), p->end(), std::string(proto::kPing)), p->end());
    EXPECT_NE(std::find(p->begin(), p->end(), std::string(proto::kBitswap120)),
              p->end());
  }
}

TEST(GoIpfsNode, IdentifyExchangesMetadataAfterConnect) {
  FidelityNet net;
  auto& a = net.add_node(NodeConfig::dht_server());
  auto& b = net.add_node(NodeConfig::dht_server());
  net.network().dial(a.id(), b.id());
  net.sim().run_until(5 * kSecond);

  const auto* a_entry = b.swarm().peerstore().find(a.id());
  ASSERT_NE(a_entry, nullptr);
  EXPECT_EQ(a_entry->agent, a.agent());
  EXPECT_TRUE(b.swarm().peerstore().supports(a.id(), proto::kKad));
  EXPECT_TRUE(a_entry->ever_dht_server);

  const auto* b_entry = a.swarm().peerstore().find(b.id());
  ASSERT_NE(b_entry, nullptr);
  EXPECT_EQ(b_entry->agent, b.agent());
}

TEST(GoIpfsNode, IdentifiedServersEnterRoutingTable) {
  FidelityNet net;
  auto& a = net.add_node(NodeConfig::dht_server());
  auto& b = net.add_node(NodeConfig::dht_server());
  auto& c = net.add_node(NodeConfig::dht_client());
  net.network().dial(b.id(), a.id());
  net.network().dial(c.id(), a.id());
  net.sim().run_until(5 * kSecond);
  EXPECT_TRUE(a.dht().routing_table().contains(b.id()));
  // Clients never enter the table.
  EXPECT_FALSE(a.dht().routing_table().contains(c.id()));
}

TEST(GoIpfsNode, StopDisconnectsFromNetwork) {
  FidelityNet net;
  auto& a = net.add_node();
  auto& b = net.add_node();
  net.network().dial(a.id(), b.id());
  net.sim().run_until(5 * kSecond);
  ASSERT_EQ(b.swarm().open_count(), 1u);

  a.stop();
  net.sim().run_until(net.sim().now() + 5 * kSecond);
  EXPECT_FALSE(net.network().online(a.id()));
  EXPECT_EQ(b.swarm().open_count(), 0u);
}

TEST(GoIpfsNode, BootstrapConnectsAndPopulatesTable) {
  FidelityNet net;
  auto& hub = net.add_node(NodeConfig::dht_server());
  auto& joiner = net.add_node(NodeConfig::dht_server());
  joiner.bootstrap({hub.id()});
  net.sim().run_until(30 * kSecond);
  EXPECT_TRUE(joiner.swarm().connected_to(hub.id()));
  EXPECT_TRUE(joiner.dht().routing_table().contains(hub.id()));
}

TEST(GoIpfsNode, ConnectionTrimmingUnderLowWatermarks) {
  FidelityNet net;
  // Tiny watermarks so the effect shows with few nodes: low=2, high=4.
  auto& hub = net.add_node(NodeConfig::dht_server(2, 4));
  std::vector<node::GoIpfsNode*> others;
  for (int i = 0; i < 8; ++i) {
    others.push_back(&net.add_node(NodeConfig::dht_client()));
  }
  for (auto* other : others) {
    net.network().dial(other->id(), hub.id());
  }
  net.sim().run_until(5 * common::kMinute);
  // The hub's connection manager must have trimmed to at most HighWater.
  EXPECT_LE(hub.swarm().open_count(), 4u);
  EXPECT_GE(hub.swarm().opened_total(), 8u);
}

TEST(GoIpfsNode, DhtServersSurviveTrimsLongerThanClients) {
  FidelityNet net;
  auto& hub = net.add_node(NodeConfig::dht_server(3, 6));
  std::vector<node::GoIpfsNode*> servers;
  std::vector<node::GoIpfsNode*> clients;
  for (int i = 0; i < 3; ++i) servers.push_back(&net.add_node(NodeConfig::dht_server()));
  for (int i = 0; i < 6; ++i) clients.push_back(&net.add_node(NodeConfig::dht_client()));
  for (auto* peer : servers) net.network().dial(peer->id(), hub.id());
  net.sim().run_until(10 * kSecond);  // identify completes; servers get tagged
  for (auto* peer : clients) net.network().dial(peer->id(), hub.id());
  net.sim().run_until(5 * kMinute);

  std::size_t servers_connected = 0;
  for (auto* peer : servers) {
    if (hub.swarm().connected_to(peer->id())) ++servers_connected;
  }
  // Tagged DHT servers survive; the untagged client overflow was trimmed.
  EXPECT_EQ(servers_connected, 3u);
  EXPECT_LE(hub.swarm().open_count(), 6u);
}

}  // namespace
}  // namespace ipfs::node
