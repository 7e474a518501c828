// Differential check of the id-based §IV–§V analyses.
//
// A seeded generator writes random peers into a measure::Dataset through its
// public writers and keeps its own string-keyed log of the same writes:
// shared NAT IPs, multi-homed and unconnected PIDs, protocol flaps and agent
// upgrades and downgrades.  Each analysis is then recomputed here from that
// log with std::set/std::map of strings and IP values, the way the analyses
// worked before the dataset interned its names, and the two must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/metadata.hpp"
#include "analysis/size_estimation.hpp"
#include "common/rng.hpp"
#include "p2p/protocols.hpp"

namespace ipfs::analysis {
namespace {

namespace proto = p2p::protocols;
using common::SimTime;

/// What the generator wrote for one peer, in write order.
struct LoggedPeer {
  std::vector<std::string> agents;
  std::vector<std::pair<std::string, bool>> protocol_events;
  std::set<std::string> protocols_ever;
  std::set<p2p::IpAddress> ips;
};

struct Generated {
  measure::Dataset dataset;
  std::vector<LoggedPeer> log;  ///< by peer index
};

const std::vector<std::string>& agent_pool() {
  static const std::vector<std::string> kAgents = {
      "go-ipfs/0.8.0/48f94e2",        "go-ipfs/0.8.0/48f94e2-dirty",
      "go-ipfs/0.10.0/64b532f",       "go-ipfs/0.11.0/67220ed",
      "go-ipfs/0.11.0/0c2f9d5-dirty", "go-ipfs/0.12.0-rc1/06191df",
      "go-ipfs/0.12.0/06191df",       "hydra-booster/0.7.4",
      "nebula-crawler/1.1.0",         "ipfs crawler",
      "storm",                        "go-ethereum/v1.10.13",
      "rust-libp2p/0.40.0",           ""};
  return kAgents;
}

/// Only ever retracted: it is in the dataset's table, but no peer announced
/// it, so no distinct count may include it.
constexpr std::string_view kWithdrawnOnly = "/x/withdrawn/1.0.0";

const std::vector<std::string>& protocol_pool() {
  static const std::vector<std::string> kProtocols = {
      std::string(proto::kKad),        std::string(proto::kAutonat),
      std::string(proto::kBitswap),    std::string(proto::kBitswap120),
      std::string(proto::kBitswap100), std::string(proto::kPing),
      std::string(proto::kIdentify),   std::string(proto::kSbptp),
      std::string(proto::kSfst1),      "/x/custom/1.0.0",
      std::string(kWithdrawnOnly)};
  return kProtocols;
}

Generated generate(std::uint64_t seed) {
  common::Rng rng(seed);
  Generated out;
  const std::size_t peers = 150 + rng.uniform_u64(150);
  out.log.resize(peers);
  for (std::size_t p = 0; p < peers; ++p) {
    out.dataset.intern(p2p::PeerId::from_seed(seed * 100'000 + p + 1), 0);
  }
  // A few NAT addresses many PIDs share; every other IP is one PID's own.
  std::vector<p2p::IpAddress> shared_ips;
  for (std::uint32_t i = 0; i < 12; ++i) {
    shared_ips.push_back(p2p::IpAddress::v4(0x0a000000u + i * 0x01000001u));
  }
  shared_ips.push_back(p2p::IpAddress::v6(0x20010db8ULL << 32, seed));

  const auto& agents = agent_pool();
  const auto& protocols = protocol_pool();
  const std::size_t writes = peers * 10;
  for (std::size_t w = 0; w < writes; ++w) {
    // Writes interleave across peers, so names enter the tables in a
    // different order for every seed.
    const auto peer = static_cast<measure::PeerIndex>(rng.uniform_u64(peers));
    if (peer % 17 == 0) continue;  // never identified, never connected
    LoggedPeer& logged = out.log[peer];
    const auto at = static_cast<SimTime>(w);
    switch (rng.uniform_u64(4)) {
      case 0: {
        // Agents step to a neighbour in the pool most of the time: go-ipfs
        // upgrades, downgrades and commit changes.
        std::size_t pick = rng.uniform_u64(agents.size());
        if (!logged.agents.empty() && rng.bernoulli(0.7)) {
          const auto last = static_cast<std::size_t>(
              std::find(agents.begin(), agents.end(), logged.agents.back()) -
              agents.begin());
          pick = (last + (rng.bernoulli(0.5) ? 1 : agents.size() - 1)) % agents.size();
        }
        out.dataset.add_agent(peer, at, agents[pick]);
        logged.agents.push_back(agents[pick]);
        break;
      }
      case 1:
      case 2: {
        // Announce or retract: retractions and re-announcements of the same
        // protocol are the §IV-B flaps.
        const std::string& name = protocols[rng.uniform_u64(protocols.size())];
        const bool added = rng.bernoulli(0.6) && name != kWithdrawnOnly;
        out.dataset.add_protocol_event(peer, at, name, added);
        logged.protocol_events.emplace_back(name, added);
        if (added) logged.protocols_ever.insert(name);
        break;
      }
      default: {
        const p2p::IpAddress ip =
            rng.bernoulli(0.3)
                ? shared_ips[rng.uniform_u64(shared_ips.size())]
                : p2p::IpAddress::v4(0xc0000000u + static_cast<std::uint32_t>(w));
        out.dataset.add_connected_ip(peer, ip);
        logged.ips.insert(ip);
        break;
      }
    }
  }
  return out;
}

// ---- string-keyed references ------------------------------------------------

MultiaddrGrouping reference_grouping(const std::vector<LoggedPeer>& log) {
  MultiaddrGrouping result;
  result.total_pids = log.size();
  std::vector<std::size_t> connected;
  for (std::size_t p = 0; p < log.size(); ++p) {
    if (!log[p].ips.empty()) connected.push_back(p);
  }
  result.connected_pids = connected.size();
  std::vector<std::size_t> parent(connected.size());
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) x = parent[x];
    return x;
  };
  std::map<p2p::IpAddress, std::size_t> owner;
  std::map<p2p::IpAddress, std::uint64_t> pids_per_ip;
  for (std::size_t slot = 0; slot < connected.size(); ++slot) {
    for (const p2p::IpAddress& ip : log[connected[slot]].ips) {
      ++pids_per_ip[ip];
      const auto [it, inserted] = owner.emplace(ip, slot);
      if (!inserted) parent[find(slot)] = find(it->second);
    }
  }
  result.distinct_ips = owner.size();
  std::map<std::size_t, std::uint64_t> sizes;
  for (std::size_t slot = 0; slot < connected.size(); ++slot) ++sizes[find(slot)];
  result.groups = sizes.size();
  for (const auto& [root, size] : sizes) {
    result.group_sizes.push_back(size);
    if (size == 1) ++result.singleton_groups;
    result.largest_group = std::max(result.largest_group, size);
  }
  std::sort(result.group_sizes.begin(), result.group_sizes.end(),
            std::greater<std::uint64_t>());
  for (const std::size_t p : connected) {
    if (log[p].ips.size() == 1 && pids_per_ip[*log[p].ips.begin()] == 1) {
      ++result.unique_ip_pids;
    }
  }
  return result;
}

bool announced_bitswap(const LoggedPeer& peer) {
  return std::ranges::any_of(peer.protocols_ever, [](const std::string& protocol) {
    return proto::is_bitswap(protocol);
  });
}

MetadataSummary reference_summary(const std::vector<LoggedPeer>& log) {
  MetadataSummary summary;
  summary.total_pids = log.size();
  std::set<std::string> agent_strings;
  std::set<std::string> go_ipfs_versions;
  std::set<std::string> protocols;
  for (const LoggedPeer& peer : log) {
    protocols.insert(peer.protocols_ever.begin(), peer.protocols_ever.end());
    if (announced_bitswap(peer)) ++summary.bitswap_supporters;
    if (peer.protocols_ever.contains(std::string(proto::kKad))) ++summary.kad_supporters;
    if (peer.agents.empty()) {
      ++summary.missing_agent_pids;
      continue;
    }
    for (const std::string& agent : peer.agents) {
      agent_strings.insert(agent);
      if (common::AgentInfo::parse(agent).is_go_ipfs()) go_ipfs_versions.insert(agent);
    }
    const auto info = common::AgentInfo::parse(peer.agents.front());
    if (info.is_go_ipfs()) {
      ++summary.go_ipfs_pids;
    } else if (info.name == "hydra-booster") {
      ++summary.hydra_pids;
    } else if (info.name.find("crawler") != std::string::npos) {
      ++summary.crawler_pids;
    } else {
      ++summary.other_agent_pids;
    }
  }
  summary.distinct_agent_strings = agent_strings.size();
  summary.distinct_protocols = protocols.size();
  summary.go_ipfs_version_count = go_ipfs_versions.size();
  return summary;
}

VersionChangeCounts reference_version_changes(const std::vector<LoggedPeer>& log) {
  VersionChangeCounts counts;
  for (const LoggedPeer& peer : log) {
    for (std::size_t i = 1; i < peer.agents.size(); ++i) {
      const auto before = common::AgentInfo::parse(peer.agents[i - 1]);
      const auto after = common::AgentInfo::parse(peer.agents[i]);
      if (!before.is_go_ipfs() && after.is_go_ipfs()) {
        ++counts.into_go_ipfs;
        continue;
      }
      switch (common::classify_version_change(before, after)) {
        case common::VersionChangeKind::kNone: continue;
        case common::VersionChangeKind::kUpgrade: ++counts.upgrades; break;
        case common::VersionChangeKind::kDowngrade: ++counts.downgrades; break;
        case common::VersionChangeKind::kChange: ++counts.changes; break;
      }
      switch (common::classify_dirty_transition(before, after)) {
        case common::DirtyTransition::kMainToMain: ++counts.main_to_main; break;
        case common::DirtyTransition::kMainToDirty: ++counts.main_to_dirty; break;
        case common::DirtyTransition::kDirtyToMain: ++counts.dirty_to_main; break;
        case common::DirtyTransition::kDirtyToDirty: ++counts.dirty_to_dirty; break;
      }
    }
  }
  return counts;
}

FlappingStats reference_flapping(const std::vector<LoggedPeer>& log,
                                 const std::string& protocol) {
  FlappingStats stats;
  for (const LoggedPeer& peer : log) {
    const auto toggles = static_cast<std::uint64_t>(
        std::ranges::count_if(peer.protocol_events, [&protocol](const auto& event) {
          return event.first == protocol;
        }));
    if (toggles > 1) {
      ++stats.peers;
      stats.events += toggles - 1;
    }
  }
  return stats;
}

std::map<std::string, std::uint64_t> reference_agent_histogram(
    const std::vector<LoggedPeer>& log) {
  std::map<std::string, std::uint64_t> counts;
  for (const LoggedPeer& peer : log) {
    const std::string first = peer.agents.empty() ? std::string() : peer.agents.front();
    ++counts[agent_group_label(first)];
  }
  return counts;
}

std::map<std::string, std::uint64_t> reference_protocol_histogram(
    const std::vector<LoggedPeer>& log) {
  std::map<std::string, std::uint64_t> counts;
  for (const LoggedPeer& peer : log) {
    for (const std::string& protocol : peer.protocols_ever) ++counts[protocol];
  }
  return counts;
}

AnomalyReport reference_anomalies(const std::vector<LoggedPeer>& log) {
  AnomalyReport report;
  for (const LoggedPeer& peer : log) {
    if (peer.agents.empty() || peer.agents.back().empty()) continue;
    const auto info = common::AgentInfo::parse(peer.agents.back());
    if (info.name == "storm") ++report.storm_agents;
    if (info.name.find("ethereum") != std::string::npos) ++report.ethereum_agents;
    if (info.is_go_ipfs() && !announced_bitswap(peer) && !peer.protocols_ever.empty()) {
      ++report.go_ipfs_without_bitswap;
      if (peer.protocols_ever.contains(std::string(proto::kSbptp))) {
        ++report.go_ipfs_with_sbptp;
      }
    }
  }
  return report;
}

// ---- the comparison ---------------------------------------------------------

class InternedAnalyses : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InternedAnalyses, AgreeWithStringKeyedReference) {
  const Generated generated = generate(GetParam());
  const measure::Dataset& dataset = generated.dataset;
  const std::vector<LoggedPeer>& log = generated.log;

  // The generator covers what the analyses distinguish.
  const MultiaddrGrouping reference = reference_grouping(log);
  ASSERT_GT(reference.largest_group, 2u) << "shared IPs";
  ASSERT_GT(reference.unique_ip_pids, 0u);
  ASSERT_LT(reference.connected_pids, reference.total_pids) << "unconnected PIDs";
  const VersionChangeCounts changes = reference_version_changes(log);
  ASSERT_GT(changes.upgrades, 0u);
  ASSERT_GT(changes.downgrades, 0u);
  ASSERT_GT(reference_flapping(log, std::string(proto::kKad)).peers, 0u);
  ASSERT_TRUE(dataset.find_protocol(kWithdrawnOnly).has_value());

  const MultiaddrGrouping grouping = group_by_multiaddr(dataset);
  EXPECT_EQ(grouping.total_pids, reference.total_pids);
  EXPECT_EQ(grouping.connected_pids, reference.connected_pids);
  EXPECT_EQ(grouping.distinct_ips, reference.distinct_ips);
  EXPECT_EQ(grouping.groups, reference.groups);
  EXPECT_EQ(grouping.singleton_groups, reference.singleton_groups);
  EXPECT_EQ(grouping.unique_ip_pids, reference.unique_ip_pids);
  EXPECT_EQ(grouping.largest_group, reference.largest_group);
  EXPECT_EQ(grouping.group_sizes, reference.group_sizes);

  const MetadataSummary summary = summarize_metadata(dataset);
  const MetadataSummary expected = reference_summary(log);
  EXPECT_EQ(summary.total_pids, expected.total_pids);
  EXPECT_EQ(summary.distinct_agent_strings, expected.distinct_agent_strings);
  EXPECT_EQ(summary.distinct_protocols, expected.distinct_protocols);
  EXPECT_EQ(summary.go_ipfs_pids, expected.go_ipfs_pids);
  EXPECT_EQ(summary.go_ipfs_version_count, expected.go_ipfs_version_count);
  EXPECT_EQ(summary.hydra_pids, expected.hydra_pids);
  EXPECT_EQ(summary.crawler_pids, expected.crawler_pids);
  EXPECT_EQ(summary.other_agent_pids, expected.other_agent_pids);
  EXPECT_EQ(summary.missing_agent_pids, expected.missing_agent_pids);
  EXPECT_EQ(summary.bitswap_supporters, expected.bitswap_supporters);
  EXPECT_EQ(summary.kad_supporters, expected.kad_supporters);

  const VersionChangeCounts counts = count_version_changes(dataset);
  EXPECT_EQ(counts.upgrades, changes.upgrades);
  EXPECT_EQ(counts.downgrades, changes.downgrades);
  EXPECT_EQ(counts.changes, changes.changes);
  EXPECT_EQ(counts.main_to_main, changes.main_to_main);
  EXPECT_EQ(counts.main_to_dirty, changes.main_to_dirty);
  EXPECT_EQ(counts.dirty_to_main, changes.dirty_to_main);
  EXPECT_EQ(counts.dirty_to_dirty, changes.dirty_to_dirty);
  EXPECT_EQ(counts.into_go_ipfs, changes.into_go_ipfs);

  std::vector<std::string> flapped = protocol_pool();
  flapped.emplace_back("/never/announced/1.0.0");
  for (const std::string& protocol : flapped) {
    const FlappingStats stats = protocol_flapping(dataset, protocol);
    const FlappingStats want = reference_flapping(log, protocol);
    EXPECT_EQ(stats.peers, want.peers) << protocol;
    EXPECT_EQ(stats.events, want.events) << protocol;
  }

  const common::CountedHistogram agents = agent_histogram(dataset);
  EXPECT_EQ(agents.counts(), reference_agent_histogram(log));
  EXPECT_EQ(agents.total(), log.size());
  const common::CountedHistogram protocols = protocol_histogram(dataset);
  const auto want_protocols = reference_protocol_histogram(log);
  EXPECT_EQ(protocols.counts(), want_protocols);
  std::uint64_t announcements = 0;
  for (const auto& [protocol, count] : want_protocols) announcements += count;
  EXPECT_EQ(protocols.total(), announcements);

  const AnomalyReport anomalies = find_anomalies(dataset);
  const AnomalyReport want_anomalies = reference_anomalies(log);
  EXPECT_EQ(anomalies.go_ipfs_without_bitswap, want_anomalies.go_ipfs_without_bitswap);
  EXPECT_EQ(anomalies.go_ipfs_with_sbptp, want_anomalies.go_ipfs_with_sbptp);
  EXPECT_EQ(anomalies.storm_agents, want_anomalies.storm_agents);
  EXPECT_EQ(anomalies.ethereum_agents, want_anomalies.ethereum_agents);
}

TEST_P(InternedAnalyses, RecordsResolveToTheLoggedNames) {
  const Generated generated = generate(GetParam());
  const measure::Dataset& dataset = generated.dataset;
  ASSERT_EQ(dataset.peer_count(), generated.log.size());
  for (measure::PeerIndex p = 0; p < dataset.peer_count(); ++p) {
    const measure::PeerRecord& record = dataset.record(p);
    const LoggedPeer& logged = generated.log[p];
    std::vector<std::string> agents;
    for (const measure::AgentEvent& event : record.agent_history) {
      agents.push_back(dataset.agent_name(event.agent));
    }
    EXPECT_EQ(agents, logged.agents);
    std::vector<std::pair<std::string, bool>> events;
    for (const measure::ProtocolEvent& event : record.protocol_events) {
      events.emplace_back(dataset.protocol_name(event.protocol), event.added);
    }
    EXPECT_EQ(events, logged.protocol_events);
    std::set<std::string> ever;
    for (const measure::ProtocolId id : record.protocols_ever) {
      ever.insert(dataset.protocol_name(id));
    }
    EXPECT_EQ(ever, logged.protocols_ever);
    EXPECT_EQ(ever.size(), record.protocols_ever.size()) << "no repeated id";
    std::set<p2p::IpAddress> ips;
    for (const measure::IpId id : record.connected_ips) ips.insert(dataset.ip(id));
    EXPECT_EQ(ips, logged.ips);
    EXPECT_EQ(ips.size(), record.connected_ips.size()) << "no repeated id";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternedAnalyses,
                         ::testing::Values(1u, 2u, 3u, 20211203u, 987654321u));

}  // namespace
}  // namespace ipfs::analysis
