#include "analysis/size_estimation.hpp"

#include <gtest/gtest.h>

namespace ipfs::analysis {
namespace {

using common::kHour;
using measure::Dataset;
using measure::PeerIndex;

PeerIndex add_connected_peer(Dataset& dataset, std::uint64_t seed,
                             std::vector<std::uint32_t> ips) {
  const PeerIndex index = dataset.intern(p2p::PeerId::from_seed(seed), 0);
  for (const std::uint32_t ip : ips) {
    dataset.add_connected_ip(index, p2p::IpAddress::v4(ip));
  }
  dataset.add_connection({index, 0, kHour, p2p::Direction::kInbound,
                          p2p::CloseReason::kRemoteClose});
  return index;
}

TEST(MultiaddrGrouping, SingletonsAndSharedIps) {
  Dataset dataset;
  add_connected_peer(dataset, 1, {100});
  add_connected_peer(dataset, 2, {200});
  // Two peers behind one NAT IP.
  add_connected_peer(dataset, 3, {300});
  add_connected_peer(dataset, 4, {300});
  // A known-but-never-connected PID.
  dataset.intern(p2p::PeerId::from_seed(5), 0);

  const auto grouping = group_by_multiaddr(dataset);
  EXPECT_EQ(grouping.total_pids, 5u);
  EXPECT_EQ(grouping.connected_pids, 4u);
  EXPECT_EQ(grouping.distinct_ips, 3u);
  EXPECT_EQ(grouping.groups, 3u);
  EXPECT_EQ(grouping.singleton_groups, 2u);
  EXPECT_EQ(grouping.unique_ip_pids, 2u);
  EXPECT_EQ(grouping.largest_group, 2u);
}

TEST(MultiaddrGrouping, DualHomedPeerMergesItsIps) {
  Dataset dataset;
  // One peer connecting from two IPs: one group, two IPs.
  add_connected_peer(dataset, 1, {100, 101});
  const auto grouping = group_by_multiaddr(dataset);
  EXPECT_EQ(grouping.distinct_ips, 2u);
  EXPECT_EQ(grouping.groups, 1u);
  EXPECT_EQ(grouping.singleton_groups, 1u);
  // Dual-homed: not counted as a unique-IP PID (paper: 40'193 < 44'301).
  EXPECT_EQ(grouping.unique_ip_pids, 0u);
}

TEST(MultiaddrGrouping, BridgePeerMergesTwoClusters) {
  Dataset dataset;
  add_connected_peer(dataset, 1, {100});
  add_connected_peer(dataset, 2, {200});
  // A peer seen on both IPs bridges the clusters into one group.
  add_connected_peer(dataset, 3, {100, 200});
  const auto grouping = group_by_multiaddr(dataset);
  EXPECT_EQ(grouping.groups, 1u);
  EXPECT_EQ(grouping.largest_group, 3u);
  EXPECT_EQ(grouping.singleton_groups, 0u);
  EXPECT_EQ(grouping.unique_ip_pids, 0u);
}

TEST(MultiaddrGrouping, RotatingPidOperator) {
  Dataset dataset;
  // The paper's 2'156-PID mega group: many PIDs, one IP.
  for (std::uint64_t i = 0; i < 50; ++i) add_connected_peer(dataset, 100 + i, {42});
  add_connected_peer(dataset, 1, {7});
  const auto grouping = group_by_multiaddr(dataset);
  EXPECT_EQ(grouping.groups, 2u);
  EXPECT_EQ(grouping.largest_group, 50u);
  ASSERT_EQ(grouping.group_sizes.size(), 2u);
  EXPECT_EQ(grouping.group_sizes[0], 50u);  // sorted descending
  EXPECT_EQ(grouping.group_sizes[1], 1u);
}

TEST(MultiaddrGrouping, EmptyDataset) {
  Dataset dataset;
  const auto grouping = group_by_multiaddr(dataset);
  EXPECT_EQ(grouping.total_pids, 0u);
  EXPECT_EQ(grouping.groups, 0u);
}

TEST(NetworkSizeReport, CombinesBothEstimators) {
  Dataset dataset;
  // Three heavy peers (one a DHT server), two singleton one-timers.
  for (std::uint64_t i = 0; i < 3; ++i) {
    const PeerIndex index = dataset.intern(p2p::PeerId::from_seed(i), 0);
    dataset.add_connected_ip(index,
                             p2p::IpAddress::v4(static_cast<std::uint32_t>(10 + i)));
    dataset.record(index).ever_dht_server = i == 0;
    dataset.add_connection({index, 0, 30 * kHour, p2p::Direction::kInbound,
                            p2p::CloseReason::kMeasurementEnd});
  }
  add_connected_peer(dataset, 100, {200});
  add_connected_peer(dataset, 101, {201});

  const auto report = estimate_network_size(dataset);
  EXPECT_EQ(report.observed_pids, 5u);
  EXPECT_EQ(report.estimated_peers_by_ip, 5u);
  EXPECT_EQ(report.core_network_lower_bound, 3u);
  EXPECT_EQ(report.heavy_dht_servers, 1u);
  EXPECT_EQ(report.core_user_base, 2u);
  EXPECT_DOUBLE_EQ(report.pids_per_ip_group, 1.0);
}

TEST(NetworkSizeReport, GroupingCompressesRotatingPids) {
  Dataset dataset;
  for (std::uint64_t i = 0; i < 20; ++i) add_connected_peer(dataset, i, {42});
  const auto report = estimate_network_size(dataset);
  EXPECT_EQ(report.observed_pids, 20u);
  EXPECT_EQ(report.estimated_peers_by_ip, 1u);
  EXPECT_DOUBLE_EQ(report.pids_per_ip_group, 20.0);
}

}  // namespace
}  // namespace ipfs::analysis
