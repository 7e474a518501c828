#include "analysis/size_estimation.hpp"

#include <algorithm>
#include <numeric>

namespace ipfs::analysis {

namespace {

/// Disjoint-set forest with path halving.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void merge(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

MultiaddrGrouping group_by_multiaddr(const measure::Dataset& dataset) {
  MultiaddrGrouping result;
  result.total_pids = dataset.peer_count();

  // Collect connected peers and their IPs.
  std::vector<std::size_t> connected;  // peer indices with >= 1 connected IP
  connected.reserve(dataset.peer_count());
  for (std::size_t i = 0; i < dataset.peer_count(); ++i) {
    if (!dataset.record(static_cast<std::uint32_t>(i)).connected_ips.empty()) {
      connected.push_back(i);
    }
  }
  result.connected_pids = connected.size();

  // Union peers that share an IP: remember the first peer seen per IP id.
  UnionFind forest(connected.size());
  std::vector<std::size_t> ip_owner(dataset.ip_count());  // ip -> slot
  std::vector<std::uint64_t> pids_per_ip(dataset.ip_count(), 0);
  for (std::size_t slot = 0; slot < connected.size(); ++slot) {
    const auto& record = dataset.record(static_cast<std::uint32_t>(connected[slot]));
    for (const measure::IpId ip : record.connected_ips) {
      if (pids_per_ip[ip]++ == 0) {
        ip_owner[ip] = slot;
        ++result.distinct_ips;
      } else {
        forest.merge(ip_owner[ip], slot);
      }
    }
  }

  // Group sizes, indexed by each group's root slot.
  std::vector<std::uint64_t> group_size(connected.size(), 0);
  for (std::size_t slot = 0; slot < connected.size(); ++slot) {
    ++group_size[forest.find(slot)];
  }
  for (const std::uint64_t size : group_size) {
    if (size == 0) continue;
    result.group_sizes.push_back(size);
    if (size == 1) ++result.singleton_groups;
    result.largest_group = std::max(result.largest_group, size);
  }
  result.groups = result.group_sizes.size();
  std::sort(result.group_sizes.begin(), result.group_sizes.end(),
            std::greater<std::uint64_t>());

  // PIDs "with unique IP addresses": exactly one connected IP, hosting only
  // them.  Dual-homed PIDs are singleton *groups* but not unique-IP PIDs,
  // which is why the paper's 40'193 sits below its 44'301 singletons.
  for (const std::size_t peer_index : connected) {
    const auto& record = dataset.record(static_cast<std::uint32_t>(peer_index));
    if (record.connected_ips.size() != 1) continue;
    if (pids_per_ip[record.connected_ips.front()] == 1) ++result.unique_ip_pids;
  }
  return result;
}

NetworkSizeReport estimate_network_size(const measure::Dataset& dataset) {
  NetworkSizeReport report;
  const MultiaddrGrouping grouping = group_by_multiaddr(dataset);
  const ClassCounts classes = classify_peers(dataset);

  report.observed_pids = grouping.total_pids;
  report.estimated_peers_by_ip = grouping.groups;
  const auto heavy = static_cast<std::size_t>(PeerClass::kHeavy);
  report.core_network_lower_bound = classes.peers[heavy];
  report.heavy_dht_servers = classes.dht_servers[heavy];
  report.core_user_base = classes.peers[heavy] - classes.dht_servers[heavy];
  report.pids_per_ip_group =
      grouping.groups == 0
          ? 0.0
          : static_cast<double>(grouping.connected_pids) /
                static_cast<double>(grouping.groups);
  return report;
}

}  // namespace ipfs::analysis
