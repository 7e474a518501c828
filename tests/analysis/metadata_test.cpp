#include "analysis/metadata.hpp"

#include <gtest/gtest.h>

#include "p2p/protocols.hpp"

namespace ipfs::analysis {
namespace {

namespace proto = p2p::protocols;
using measure::Dataset;
using measure::PeerIndex;

PeerIndex add_peer(Dataset& dataset, std::uint64_t seed, const std::string& agent,
                   const std::vector<std::string>& protocols = {}) {
  const PeerIndex index = dataset.intern(p2p::PeerId::from_seed(seed), 0);
  if (!agent.empty()) dataset.add_agent(index, 0, agent);
  for (const std::string& protocol : protocols) {
    dataset.add_protocol_event(index, 0, protocol, true);
    if (proto::marks_dht_server(protocol)) dataset.record(index).ever_dht_server = true;
  }
  return index;
}

TEST(AgentGroupLabel, GoIpfsCollapsesToVersion) {
  EXPECT_EQ(agent_group_label("go-ipfs/0.11.0/0c2f9d5"), "0.11.0");
  EXPECT_EQ(agent_group_label("go-ipfs/0.11.0-dev/0c2f9d5-dirty"), "0.11.0-dev");
  EXPECT_EQ(agent_group_label("hydra-booster/0.7.4"), "hydra-booster/0.7.4");
  EXPECT_EQ(agent_group_label("storm"), "storm");
  EXPECT_EQ(agent_group_label(""), "missing");
}

TEST(AgentHistogram, CountsFirstObservedAgent) {
  Dataset dataset;
  add_peer(dataset, 1, "go-ipfs/0.11.0/a");
  add_peer(dataset, 2, "go-ipfs/0.11.0/b");  // same version, other commit
  add_peer(dataset, 3, "go-ipfs/0.8.0/c");
  add_peer(dataset, 4, "storm");
  add_peer(dataset, 5, "");
  const auto histogram = agent_histogram(dataset);
  EXPECT_EQ(histogram.counts().at("0.11.0"), 2u);
  EXPECT_EQ(histogram.counts().at("0.8.0"), 1u);
  EXPECT_EQ(histogram.counts().at("storm"), 1u);
  EXPECT_EQ(histogram.counts().at("missing"), 1u);
  EXPECT_EQ(histogram.total(), 5u);
}

TEST(ProtocolHistogram, CountsPerPeerOnce) {
  Dataset dataset;
  add_peer(dataset, 1, "a", {std::string(proto::kPing), std::string(proto::kKad)});
  add_peer(dataset, 2, "b", {std::string(proto::kPing)});
  const auto histogram = protocol_histogram(dataset);
  EXPECT_EQ(histogram.counts().at(std::string(proto::kPing)), 2u);
  EXPECT_EQ(histogram.counts().at(std::string(proto::kKad)), 1u);
}

TEST(MetadataSummary, CategorisesAgents) {
  Dataset dataset;
  add_peer(dataset, 1, "go-ipfs/0.11.0/a", {std::string(proto::kBitswap120)});
  add_peer(dataset, 2, "go-ipfs/0.8.0/b", {std::string(proto::kSbptp)});
  add_peer(dataset, 3, "hydra-booster/0.7.4", {std::string(proto::kKad)});
  add_peer(dataset, 4, "nebula-crawler/1.1.0");
  add_peer(dataset, 5, "ipfs crawler");
  add_peer(dataset, 6, "storm");
  add_peer(dataset, 7, "");
  const auto summary = summarize_metadata(dataset);
  EXPECT_EQ(summary.total_pids, 7u);
  EXPECT_EQ(summary.go_ipfs_pids, 2u);
  EXPECT_EQ(summary.hydra_pids, 1u);
  EXPECT_EQ(summary.crawler_pids, 2u);
  EXPECT_EQ(summary.other_agent_pids, 1u);
  EXPECT_EQ(summary.missing_agent_pids, 1u);
  EXPECT_EQ(summary.bitswap_supporters, 1u);
  EXPECT_EQ(summary.kad_supporters, 1u);
  EXPECT_EQ(summary.go_ipfs_version_count, 2u);
  EXPECT_EQ(summary.distinct_agent_strings, 6u);
}

TEST(VersionChanges, ClassifiesHistoryTransitions) {
  Dataset dataset;
  const PeerIndex upgrader = add_peer(dataset, 1, "go-ipfs/0.10.0/a");
  dataset.add_agent(upgrader, 10, "go-ipfs/0.11.0/b");
  const PeerIndex downgrader = add_peer(dataset, 2, "go-ipfs/0.11.0/a");
  dataset.add_agent(downgrader, 10, "go-ipfs/0.10.0/b");
  const PeerIndex changer = add_peer(dataset, 3, "go-ipfs/0.11.0/a-dirty");
  dataset.add_agent(changer, 10, "go-ipfs/0.11.0/b-dirty");
  const PeerIndex convert = add_peer(dataset, 4, "rust-libp2p/0.40.0");
  dataset.add_agent(convert, 10, "go-ipfs/0.11.0/x");
  add_peer(dataset, 5, "go-ipfs/0.11.0/stable");  // no change

  const auto counts = count_version_changes(dataset);
  EXPECT_EQ(counts.upgrades, 1u);
  EXPECT_EQ(counts.downgrades, 1u);
  EXPECT_EQ(counts.changes, 1u);
  EXPECT_EQ(counts.total(), 3u);
  EXPECT_EQ(counts.into_go_ipfs, 1u);
  EXPECT_EQ(counts.main_to_main, 2u);
  EXPECT_EQ(counts.dirty_to_dirty, 1u);
}

TEST(VersionChanges, MultipleChangesPerPeer) {
  Dataset dataset;
  const PeerIndex peer = add_peer(dataset, 1, "go-ipfs/0.10.0/a");
  dataset.add_agent(peer, 10, "go-ipfs/0.11.0/b");
  dataset.add_agent(peer, 20, "go-ipfs/0.12.0/c");
  dataset.add_agent(peer, 30, "go-ipfs/0.11.0/d");
  const auto counts = count_version_changes(dataset);
  EXPECT_EQ(counts.upgrades, 2u);
  EXPECT_EQ(counts.downgrades, 1u);
}

TEST(ProtocolFlapping, CountsTogglesBeyondInitialAnnouncement) {
  Dataset dataset;
  const std::string kad(proto::kKad);
  // Peer 1: announced once, never changed -> not a flapper.
  add_peer(dataset, 1, "a", {kad});
  // Peer 2: announce, retract, announce -> 2 toggles after the initial one.
  const PeerIndex flapper = add_peer(dataset, 2, "b", {kad});
  dataset.add_protocol_event(flapper, 10, kad, false);
  dataset.add_protocol_event(flapper, 20, kad, true);
  const auto stats = protocol_flapping(dataset, proto::kKad);
  EXPECT_EQ(stats.peers, 1u);
  EXPECT_EQ(stats.events, 2u);
}

TEST(ProtocolFlapping, UnknownProtocolCountsNothing) {
  Dataset dataset;
  const PeerIndex flapper = add_peer(dataset, 1, "a", {std::string(proto::kKad)});
  dataset.add_protocol_event(flapper, 10, proto::kKad, false);
  dataset.add_protocol_event(flapper, 20, proto::kKad, true);
  ASSERT_EQ(dataset.find_protocol(proto::kAutonat), std::nullopt);
  const auto stats = protocol_flapping(dataset, proto::kAutonat);
  EXPECT_EQ(stats.peers, 0u);
  EXPECT_EQ(stats.events, 0u);
  const auto empty = protocol_flapping(Dataset(), proto::kKad);
  EXPECT_EQ(empty.peers, 0u);
  EXPECT_EQ(empty.events, 0u);
}

TEST(Anomalies, DetectsStormFingerprint) {
  Dataset dataset;
  // Disguised storm: go-ipfs agent, sbptp, no bitswap.
  add_peer(dataset, 1, "go-ipfs/0.8.0/x",
           {std::string(proto::kSbptp), std::string(proto::kPing)});
  // Honest go-ipfs.
  add_peer(dataset, 2, "go-ipfs/0.11.0/y",
           {std::string(proto::kBitswap120), std::string(proto::kPing)});
  // Overt storm + the ethereum curiosity.
  add_peer(dataset, 3, "storm", {std::string(proto::kSfst1)});
  add_peer(dataset, 4, "go-ethereum/v1.10.13", {std::string(proto::kPing)});
  const auto report = find_anomalies(dataset);
  EXPECT_EQ(report.go_ipfs_without_bitswap, 1u);
  EXPECT_EQ(report.go_ipfs_with_sbptp, 1u);
  EXPECT_EQ(report.storm_agents, 1u);
  EXPECT_EQ(report.ethereum_agents, 1u);
}

TEST(Anomalies, PeerWithoutProtocolInfoNotFlagged) {
  Dataset dataset;
  add_peer(dataset, 1, "go-ipfs/0.11.0/x");  // identify gave agent only
  const auto report = find_anomalies(dataset);
  EXPECT_EQ(report.go_ipfs_without_bitswap, 0u);
}

}  // namespace
}  // namespace ipfs::analysis
