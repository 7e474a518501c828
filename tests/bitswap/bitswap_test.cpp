#include "bitswap/bitswap.hpp"

#include <gtest/gtest.h>

#include "../testing/fidelity.hpp"

namespace ipfs::bitswap {
namespace {

using common::kSecond;
using ipfs::testing::FidelityNet;

TEST(Bitswap, StoreBasics) {
  sim::Simulation sim;
  net::Network network(sim, common::Rng(1));
  BitswapEngine engine(network, p2p::PeerId::from_seed(1));
  const Cid cid = Cid::from_seed(7);
  EXPECT_FALSE(engine.has_block(cid));
  engine.add_block(cid);
  EXPECT_TRUE(engine.has_block(cid));
  EXPECT_EQ(engine.store_size(), 1u);
}

TEST(Bitswap, BlockTransfersBetweenConnectedNodes) {
  FidelityNet net;
  auto& provider = net.add_node();
  auto& requester = net.add_node();
  net.bootstrap_all();

  const Cid cid = Cid::from_seed(42);
  provider.bitswap().add_block(cid);

  bool received = false;
  requester.bitswap().want_block(provider.id(), cid,
                                 [&](const Cid& got) { received = got == cid; });
  net.sim().run_until(net.sim().now() + 10 * kSecond);
  EXPECT_TRUE(received);
  EXPECT_TRUE(requester.bitswap().has_block(cid));
  EXPECT_EQ(requester.bitswap().pending_wants(), 0u);
}

TEST(Bitswap, LedgersTrackExchange) {
  FidelityNet net;
  auto& provider = net.add_node();
  auto& requester = net.add_node();
  net.bootstrap_all();

  const Cid cid = Cid::from_seed(42);
  provider.bitswap().add_block(cid);
  requester.bitswap().want_block(provider.id(), cid, {});
  net.sim().run_until(net.sim().now() + 10 * kSecond);

  const Ledger* provider_ledger = provider.bitswap().ledger_for(requester.id());
  ASSERT_NE(provider_ledger, nullptr);
  EXPECT_EQ(provider_ledger->blocks_sent, 1u);
  EXPECT_EQ(provider_ledger->bytes_sent, BitswapEngine::kBlockSize);

  const Ledger* requester_ledger = requester.bitswap().ledger_for(provider.id());
  ASSERT_NE(requester_ledger, nullptr);
  EXPECT_EQ(requester_ledger->blocks_received, 1u);
}

TEST(Bitswap, MissingBlockNeverDelivers) {
  FidelityNet net;
  auto& provider = net.add_node();
  auto& requester = net.add_node();
  net.bootstrap_all();

  bool received = false;
  requester.bitswap().want_block(provider.id(), Cid::from_seed(404),
                                 [&](const Cid&) { received = true; });
  net.sim().run_until(net.sim().now() + 30 * kSecond);
  EXPECT_FALSE(received);
  EXPECT_EQ(requester.bitswap().pending_wants(), 1u);
}

TEST(Bitswap, CancelWantsDropsOnlyThatPeersWants) {
  FidelityNet net;
  auto& provider = net.add_node();
  auto& other = net.add_node();
  auto& requester = net.add_node();
  net.bootstrap_all();

  bool fired = false;
  requester.bitswap().want_block(provider.id(), Cid::from_seed(404),
                                 [&](const Cid&) { fired = true; });
  requester.bitswap().want_block(other.id(), Cid::from_seed(405), {});
  ASSERT_EQ(requester.bitswap().pending_wants(), 2u);

  requester.bitswap().cancel_wants(provider.id());
  EXPECT_EQ(requester.bitswap().pending_wants(), 1u);
  // The dropped callback is destroyed without firing, even if the block
  // shows up later.
  provider.bitswap().add_block(Cid::from_seed(404));
  net.sim().run_until(net.sim().now() + 10 * kSecond);
  EXPECT_FALSE(fired);

  requester.bitswap().cancel_wants(other.id());
  EXPECT_EQ(requester.bitswap().pending_wants(), 0u);
}

TEST(Bitswap, CancelOnDisconnectKeepsPendingWantsBoundedUnderChurn) {
  // The leak satellite: a fetcher that wants blocks from peers that keep
  // departing must not accumulate wanted_ entries forever — cancelling on
  // each disconnect keeps pending_wants bounded by the in-flight set.
  FidelityNet net;
  auto& requester = net.add_node();
  net.bootstrap_all();
  for (std::uint64_t round = 0; round < 50; ++round) {
    const p2p::PeerId peer = p2p::PeerId::from_seed(1000 + round);
    requester.bitswap().want_block(peer, Cid::from_seed(2000 + round), {});
    // The peer goes away without ever answering.
    requester.bitswap().cancel_wants(peer);
    EXPECT_EQ(requester.bitswap().pending_wants(), 0u) << "round " << round;
  }
}

TEST(Bitswap, RemoveBlockEvictsFromTheStore) {
  sim::Simulation sim;
  net::Network network(sim, common::Rng(1));
  BitswapEngine engine(network, p2p::PeerId::from_seed(1));
  const Cid cid = Cid::from_seed(7);
  EXPECT_FALSE(engine.remove_block(cid));  // absent: no-op
  engine.add_block(cid);
  EXPECT_TRUE(engine.remove_block(cid));
  EXPECT_FALSE(engine.has_block(cid));
  EXPECT_EQ(engine.store_size(), 0u);
}

TEST(Bitswap, UnsolicitedBlocksDropped) {
  sim::Simulation sim;
  net::Network network(sim, common::Rng(1));
  BitswapEngine engine(network, p2p::PeerId::from_seed(1));
  BitswapMessage message;
  message.blocks.push_back(Cid::from_seed(5));
  net::Message envelope;
  envelope.protocol = p2p::protocols::kBitswap120;
  envelope.body = message;
  EXPECT_TRUE(engine.handle_message(p2p::PeerId::from_seed(2), envelope));
  EXPECT_FALSE(engine.has_block(Cid::from_seed(5)));
}

TEST(Bitswap, IgnoresForeignProtocols) {
  sim::Simulation sim;
  net::Network network(sim, common::Rng(1));
  BitswapEngine engine(network, p2p::PeerId::from_seed(1));
  net::Message envelope;
  envelope.protocol = "/ipfs/ping/1.0.0";
  EXPECT_FALSE(engine.handle_message(p2p::PeerId::from_seed(2), envelope));
}

TEST(Bitswap, MultiHopDistribution) {
  // a has the block; b fetches from a; c fetches from b.
  FidelityNet net;
  auto& a = net.add_node();
  auto& b = net.add_node();
  auto& c = net.add_node();
  net.bootstrap_all();
  // Ensure b<->c are connected as well (bootstrap wires everyone to a).
  net.network().dial(c.id(), b.id());
  net.sim().run_until(net.sim().now() + 5 * kSecond);

  const Cid cid = Cid::from_seed(1);
  a.bitswap().add_block(cid);
  b.bitswap().want_block(a.id(), cid, {});
  net.sim().run_until(net.sim().now() + 10 * kSecond);
  ASSERT_TRUE(b.bitswap().has_block(cid));

  bool c_received = false;
  c.bitswap().want_block(b.id(), cid, [&](const Cid&) { c_received = true; });
  net.sim().run_until(net.sim().now() + 10 * kSecond);
  EXPECT_TRUE(c_received);
}

}  // namespace
}  // namespace ipfs::bitswap
