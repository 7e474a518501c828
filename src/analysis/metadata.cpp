#include "analysis/metadata.hpp"

#include <algorithm>
#include <optional>

#include "p2p/protocols.hpp"

namespace ipfs::analysis {

namespace proto = p2p::protocols;

std::string agent_group_label(const std::string& agent) {
  if (agent.empty()) return "missing";
  const auto info = common::AgentInfo::parse(agent);
  if (info.is_go_ipfs() && info.version) {
    return info.version->to_string();  // paper groups go-ipfs by version number
  }
  return agent;
}

namespace {

/// Every agent string in the dataset's table, parsed once per id.
std::vector<common::AgentInfo> parse_agents(const measure::Dataset& dataset) {
  std::vector<common::AgentInfo> infos;
  infos.reserve(dataset.agent_count());
  for (measure::AgentId id = 0; id < dataset.agent_count(); ++id) {
    infos.push_back(common::AgentInfo::parse(dataset.agent_name(id)));
  }
  return infos;
}

/// Per protocol id: whether the protocol is an /ipfs/bitswap variant.
std::vector<bool> bitswap_protocols(const measure::Dataset& dataset) {
  std::vector<bool> bitswap(dataset.protocol_count());
  for (measure::ProtocolId id = 0; id < bitswap.size(); ++id) {
    bitswap[id] = proto::is_bitswap(dataset.protocol_name(id));
  }
  return bitswap;
}

bool announces(const measure::PeerRecord& peer,
               std::optional<measure::ProtocolId> protocol) {
  return protocol &&
         std::binary_search(peer.protocols_ever.begin(), peer.protocols_ever.end(),
                            *protocol);
}

bool announces_any(const measure::PeerRecord& peer, const std::vector<bool>& which) {
  return std::ranges::any_of(peer.protocols_ever,
                             [&which](measure::ProtocolId id) { return which[id]; });
}

}  // namespace

common::CountedHistogram agent_histogram(const measure::Dataset& dataset) {
  // A peer counts under its *first* observed agent (the paper's per-PID
  // tally; later changes feed Table III instead).
  std::vector<std::uint64_t> first_agents(dataset.agent_count());
  std::uint64_t missing = 0;
  for (const measure::PeerRecord& peer : dataset.peers()) {
    if (peer.agent_history.empty()) {
      ++missing;
    } else {
      ++first_agents[peer.agent_history.front().agent];
    }
  }
  common::CountedHistogram histogram;
  for (measure::AgentId id = 0; id < first_agents.size(); ++id) {
    if (first_agents[id] > 0) {
      histogram.add(agent_group_label(dataset.agent_name(id)), first_agents[id]);
    }
  }
  if (missing > 0) histogram.add(agent_group_label(std::string()), missing);
  return histogram;
}

common::CountedHistogram protocol_histogram(const measure::Dataset& dataset) {
  std::vector<std::uint64_t> announcers(dataset.protocol_count());
  for (const measure::PeerRecord& peer : dataset.peers()) {
    for (const measure::ProtocolId id : peer.protocols_ever) ++announcers[id];
  }
  common::CountedHistogram histogram;
  for (measure::ProtocolId id = 0; id < announcers.size(); ++id) {
    if (announcers[id] > 0) histogram.add(dataset.protocol_name(id), announcers[id]);
  }
  return histogram;
}

MetadataSummary summarize_metadata(const measure::Dataset& dataset) {
  MetadataSummary summary;
  summary.total_pids = dataset.peer_count();

  const std::vector<common::AgentInfo> agents = parse_agents(dataset);
  const std::vector<bool> bitswap = bitswap_protocols(dataset);
  const std::optional<measure::ProtocolId> kad = dataset.find_protocol(proto::kKad);
  // The distinct counts cover the ids some peer references.
  std::vector<bool> agent_seen(agents.size());
  std::vector<bool> protocol_seen(bitswap.size());

  for (const measure::PeerRecord& peer : dataset.peers()) {
    for (const measure::ProtocolId id : peer.protocols_ever) protocol_seen[id] = true;
    if (announces_any(peer, bitswap)) ++summary.bitswap_supporters;
    if (announces(peer, kad)) ++summary.kad_supporters;

    if (peer.agent_history.empty()) {
      ++summary.missing_agent_pids;
      continue;
    }
    for (const measure::AgentEvent& event : peer.agent_history) {
      agent_seen[event.agent] = true;
    }
    const common::AgentInfo& info = agents[peer.agent_history.front().agent];
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
  for (measure::AgentId id = 0; id < agents.size(); ++id) {
    if (!agent_seen[id]) continue;
    ++summary.distinct_agent_strings;
    if (agents[id].is_go_ipfs()) ++summary.go_ipfs_version_count;
  }
  summary.distinct_protocols =
      static_cast<std::uint64_t>(std::ranges::count(protocol_seen, true));
  return summary;
}

VersionChangeCounts count_version_changes(const measure::Dataset& dataset) {
  VersionChangeCounts counts;
  const std::vector<common::AgentInfo> agents = parse_agents(dataset);
  for (const measure::PeerRecord& peer : dataset.peers()) {
    for (std::size_t i = 1; i < peer.agent_history.size(); ++i) {
      const common::AgentInfo& before = agents[peer.agent_history[i - 1].agent];
      const common::AgentInfo& after = agents[peer.agent_history[i].agent];
      if (!before.is_go_ipfs() && after.is_go_ipfs()) {
        ++counts.into_go_ipfs;
        continue;
      }
      const auto kind = common::classify_version_change(before, after);
      if (kind == common::VersionChangeKind::kNone) continue;
      switch (kind) {
        case common::VersionChangeKind::kUpgrade: ++counts.upgrades; break;
        case common::VersionChangeKind::kDowngrade: ++counts.downgrades; break;
        case common::VersionChangeKind::kChange: ++counts.changes; break;
        case common::VersionChangeKind::kNone: break;
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

FlappingStats protocol_flapping(const measure::Dataset& dataset,
                                std::string_view protocol) {
  FlappingStats stats;
  const std::optional<measure::ProtocolId> id = dataset.find_protocol(protocol);
  if (!id) return stats;  // nobody ever announced or retracted it
  for (const measure::PeerRecord& peer : dataset.peers()) {
    const auto toggles = static_cast<std::uint64_t>(std::ranges::count_if(
        peer.protocol_events,
        [id](const measure::ProtocolEvent& event) { return event.protocol == *id; }));
    // The first "added" event is the initial announcement, not a change.
    if (toggles > 1) {
      ++stats.peers;
      stats.events += toggles - 1;
    }
  }
  return stats;
}

AnomalyReport find_anomalies(const measure::Dataset& dataset) {
  AnomalyReport report;
  const std::vector<common::AgentInfo> agents = parse_agents(dataset);
  const std::vector<bool> bitswap = bitswap_protocols(dataset);
  const std::optional<measure::ProtocolId> sbptp = dataset.find_protocol(proto::kSbptp);
  for (const measure::PeerRecord& peer : dataset.peers()) {
    if (dataset.current_agent(peer).empty()) continue;
    const common::AgentInfo& info = agents[peer.agent_history.back().agent];
    if (info.name == "storm") ++report.storm_agents;
    if (info.name.find("ethereum") != std::string::npos) ++report.ethereum_agents;
    if (info.is_go_ipfs() && !peer.protocols_ever.empty() &&
        !announces_any(peer, bitswap)) {
      ++report.go_ipfs_without_bitswap;
      if (announces(peer, sbptp)) ++report.go_ipfs_with_sbptp;
    }
  }
  return report;
}

}  // namespace ipfs::analysis
