#include "scenario/population.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "p2p/protocols.hpp"

namespace ipfs::scenario {

using common::kDay;
using common::kHour;
using common::kMinute;
using common::kSecond;

Population::Population(const PopulationSpec& spec, common::SimDuration duration,
                       common::Rng rng)
    : spec_(spec) {
  // Id 0 of each table is the empty agent and the empty set.
  agents_.intern("");
  intern_protocols({});
  build(duration, rng);
}

ProtocolSetId Population::intern_protocols(std::span<const std::string_view> names) {
  key_ids_.clear();
  for (const std::string_view name : names) {
    key_ids_.push_back(protocol_names_.intern(name));
  }
  std::ranges::sort(key_ids_);
  key_ids_.erase(std::ranges::unique(key_ids_).begin(), key_ids_.end());
  key_.resize(key_ids_.size() * sizeof(std::uint32_t));
  if (!key_.empty()) std::memcpy(key_.data(), key_ids_.data(), key_.size());
  if (const auto it = set_ids_.find(key_); it != set_ids_.end()) return it->second;

  ProtocolSet set;
  for (const std::uint32_t id : key_ids_) set.names.emplace_back(protocol_names_.name(id));
  std::ranges::sort(set.names);
  set.kad = std::ranges::find(set.names, p2p::protocols::kKad) != set.names.end();
  const auto id = static_cast<ProtocolSetId>(sets_.size());
  sets_.push_back(std::move(set));
  set_ids_.emplace(key_, id);
  return id;
}

bool Population::set_agent(std::uint32_t index, std::string_view agent) {
  const AgentId id = agents_.intern(agent);
  if (peers_[index].agent == id) return false;
  peers_[index].agent = id;
  return true;
}

void Population::toggle_protocol(std::uint32_t index, std::string_view protocol) {
  RemotePeer& peer = peers_[index];
  const auto current = protocols(peer.protocols);
  scratch_.assign(current.begin(), current.end());
  if (const auto it = std::ranges::find(scratch_, protocol); it != scratch_.end()) {
    scratch_.erase(it);
  } else {
    scratch_.push_back(protocol);
  }
  peer.protocols = intern_protocols(scratch_);
}

std::uint32_t Population::scaled(std::uint32_t base) const {
  const auto value = static_cast<std::uint32_t>(
      std::llround(static_cast<double>(base) * spec_.scale));
  return base > 0 && spec_.scale > 0.0 ? std::max<std::uint32_t>(value, 1) : value;
}

std::size_t Population::count(Category category) const {
  return static_cast<std::size_t>(
      std::count_if(peers_.begin(), peers_.end(),
                    [category](const RemotePeer& p) { return p.category == category; }));
}

std::size_t Population::dht_server_count() const {
  return static_cast<std::size_t>(std::count_if(
      peers_.begin(), peers_.end(), [](const RemotePeer& p) { return p.dht_server; }));
}

RemotePeer& Population::emplace_peer(Category category, common::Rng& rng,
                                     net::IpAllocator& ips) {
  RemotePeer& peer = peers_.emplace_back();
  peer.index = static_cast<std::uint32_t>(peers_.size() - 1);
  peer.category = category;
  peer.pid = p2p::PeerId::random(rng);
  peer.ip = ips.unique_v4();  // may be overridden by shared-IP policies
  return peer;
}

void Population::assign_one_shot_window(RemotePeer& peer, common::SimDuration duration,
                                        common::Rng& rng) {
  const CategoryParams& params = spec_.params(peer.category);
  peer.session_start =
      static_cast<common::SimTime>(rng.uniform(0.0, static_cast<double>(duration)));
  common::SimDuration length =
      static_cast<common::SimDuration>(rng.exponential(
          static_cast<double>(std::max<common::SimDuration>(params.mean_session, 1))));
  if (peer.category == Category::kNormalUser) {
    // Normal users sit between the 2 h and 24 h class boundaries.
    length = std::clamp<common::SimDuration>(length, 2 * kHour + 10 * kMinute,
                                             22 * kHour);
  } else {
    length = std::max<common::SimDuration>(length, 30 * kSecond);
  }
  peer.session_length = length;
}

void Population::build(common::SimDuration duration, common::Rng root) {
  // Both streams branch off the same root state; the allocator (and its
  // set of used addresses) lives only as long as the build.
  net::IpAllocator ips(common::Rng(root).child(0x1b5));
  common::Rng rng = root.child(0xa11);
  const double days = static_cast<double>(duration) / static_cast<double>(kDay);
  const auto per_day = [&](std::uint32_t base_per_day) {
    return static_cast<std::uint32_t>(
        std::llround(static_cast<double>(scaled(base_per_day)) * days));
  };
  const PopulationCounts& counts = spec_.counts;
  const std::uint32_t hydra_heads = scaled(counts.hydra_heads);
  // Reserve 2 heads for the shared go-ipfs IP when the population is big
  // enough to express the anomaly.
  const std::uint32_t co_located = hydra_heads >= 30 ? 2 : 0;
  // Every category's count; the hydra loop below may place fewer heads.
  peers_.reserve(std::size_t{hydra_heads} + co_located + scaled(counts.core_servers) +
                 scaled(counts.core_clients) + scaled(counts.normal_users) +
                 scaled(counts.light_servers) + scaled(counts.light_clients) +
                 scaled(counts.crawlers) + per_day(counts.one_time_per_day) +
                 per_day(counts.ephemeral_per_day) +
                 per_day(counts.rotating_pids_per_day) + counts.ethereum_nodes);

  // --- Hydra heads: 11 IP clusters (9x100, 98, 28) + 2 heads co-located
  // with two go-ipfs nodes on a shared IP (§V-A).
  {
    std::uint32_t placed = 0;
    int pool_index = 0;
    const auto shared_ip = ips.shared_v4("hydra-with-goipfs");
    while (placed < hydra_heads - co_located) {
      const std::uint32_t pool_target = [&]() -> std::uint32_t {
        if (pool_index < 9) return scaled(100);
        if (pool_index == 9) return scaled(98);
        return scaled(28);
      }();
      const auto pool_ip =
          ips.shared_v4("hydra-dc-" + std::to_string(pool_index));
      for (std::uint32_t i = 0; i < pool_target && placed < hydra_heads - co_located;
           ++i) {
        RemotePeer& peer = emplace_peer(Category::kHydra, rng, ips);
        peer.ip = pool_ip;
        peer.port = static_cast<std::uint16_t>(3001 + i);
        peer.agent = agents_.intern("hydra-booster/0.7.4");
        peer.dht_server = true;
        ++placed;
      }
      ++pool_index;
      if (pool_index > 64) break;  // scaled populations: stop splitting
    }
    for (std::uint32_t i = 0; i < co_located; ++i) {
      RemotePeer& peer = emplace_peer(Category::kHydra, rng, ips);
      peer.ip = shared_ip;
      peer.port = static_cast<std::uint16_t>(3001 + i);
      peer.agent = agents_.intern("hydra-booster/0.7.4");
      peer.dht_server = true;
    }
    // The two go-ipfs nodes sharing that IP.
    if (co_located > 0) {
      for (int i = 0; i < 2; ++i) {
        RemotePeer& peer = emplace_peer(Category::kCoreServer, rng, ips);
        peer.ip = shared_ip;
        peer.port = static_cast<std::uint16_t>(4001 + i);
        peer.agent = agents_.intern(sample_go_ipfs_agent(rng));
        peer.dht_server = true;
      }
    }
  }

  // --- Core servers (always-on go-ipfs DHT servers).
  for (std::uint32_t i = 0; i < scaled(spec_.counts.core_servers); ++i) {
    RemotePeer& peer = emplace_peer(Category::kCoreServer, rng, ips);
    peer.agent = agents_.intern(sample_go_ipfs_agent(rng));
    peer.dht_server = true;
  }

  // --- Core clients (the always-on user base).
  for (std::uint32_t i = 0; i < scaled(spec_.counts.core_clients); ++i) {
    RemotePeer& peer = emplace_peer(Category::kCoreClient, rng, ips);
    peer.agent = agents_.intern(rng.bernoulli(0.90) ? sample_go_ipfs_agent(rng)
                                                  : sample_other_agent(rng));
    peer.dht_server = false;
  }

  // --- Normal users: one multi-hour session; 9 % run as servers.
  for (std::uint32_t i = 0; i < scaled(spec_.counts.normal_users); ++i) {
    RemotePeer& peer = emplace_peer(Category::kNormalUser, rng, ips);
    peer.agent = agents_.intern(rng.bernoulli(0.85) ? sample_go_ipfs_agent(rng)
                                                  : sample_other_agent(rng));
    peer.dht_server = rng.bernoulli(0.09);
    assign_one_shot_window(peer, duration, rng);
  }

  // --- Light servers, including the disguised storm block: go-ipfs v0.8.0
  // agents announcing sbptp instead of bitswap (§IV-B).
  {
    const std::uint32_t total = scaled(spec_.counts.light_servers);
    const std::uint32_t storm = std::min(scaled(spec_.counts.disguised_storm), total);
    for (std::uint32_t i = 0; i < total; ++i) {
      RemotePeer& peer = emplace_peer(Category::kLightServer, rng, ips);
      peer.dht_server = true;
      if (i < storm) {
        peer.agent = agents_.intern("go-ipfs/0.8.0/ce3f20a");  // uniform botnet build
      } else {
        peer.agent = agents_.intern(sample_go_ipfs_agent(rng));
      }
    }
  }

  // --- Light clients.
  for (std::uint32_t i = 0; i < scaled(spec_.counts.light_clients); ++i) {
    RemotePeer& peer = emplace_peer(Category::kLightClient, rng, ips);
    peer.agent = agents_.intern(rng.bernoulli(0.40) ? sample_go_ipfs_agent(rng)
                                                  : sample_other_agent(rng));
    peer.dht_server = false;
  }

  // --- Crawler agents.
  for (std::uint32_t i = 0; i < scaled(spec_.counts.crawlers); ++i) {
    RemotePeer& peer = emplace_peer(Category::kCrawler, rng, ips);
    peer.agent = agents_.intern(rng.bernoulli(0.5) ? "nebula-crawler/1.1.0" : "ipfs crawler");
    peer.dht_server = false;
  }

  // --- One-time arrivals (scaled per day).
  for (std::uint32_t i = 0; i < per_day(spec_.counts.one_time_per_day); ++i) {
    RemotePeer& peer = emplace_peer(Category::kOneTime, rng, ips);
    peer.agent = agents_.intern(rng.bernoulli(0.85) ? sample_go_ipfs_agent(rng)
                                                  : sample_other_agent(rng));
    peer.dht_server = rng.bernoulli(0.32);
    assign_one_shot_window(peer, duration, rng);
  }

  // --- Ephemeral arrivals: gone before identify completes ("missing").
  for (std::uint32_t i = 0; i < per_day(spec_.counts.ephemeral_per_day); ++i) {
    RemotePeer& peer = emplace_peer(Category::kEphemeral, rng, ips);
    peer.dht_server = false;
    assign_one_shot_window(peer, duration, rng);
  }

  // --- The rotating-PID operator: every PID shares one IP, one agent, one
  // protocol set (the paper's 2'156-PID group).
  {
    const auto rotator_ip = ips.shared_v4("rotating-operator");
    for (std::uint32_t i = 0; i < per_day(spec_.counts.rotating_pids_per_day); ++i) {
      RemotePeer& peer = emplace_peer(Category::kRotatingPid, rng, ips);
      peer.ip = rotator_ip;
      peer.agent = agents_.intern("go-ipfs/0.11.0/9e3b7a11");
      peer.dht_server = false;
      assign_one_shot_window(peer, duration, rng);
      // Rotation is sequential: spread starts evenly, not uniformly.
      peer.session_start = static_cast<common::SimTime>(
          (static_cast<double>(i) + rng.uniform()) /
          std::max(1.0, static_cast<double>(per_day(spec_.counts.rotating_pids_per_day))) *
          static_cast<double>(duration));
    }
  }

  // --- The lone go-ethereum curiosity.
  for (std::uint32_t i = 0; i < spec_.counts.ethereum_nodes; ++i) {
    RemotePeer& peer = emplace_peer(Category::kEthereum, rng, ips);
    peer.agent = agents_.intern("go-ethereum/v1.10.13-stable");
    peer.dht_server = false;
  }

  // Protocol sets (needs final agent + server flag).
  std::vector<std::string_view> names;
  for (RemotePeer& peer : peers_) {
    protocols_for(peer.category, peer.dht_server, agent(peer.agent), rng, names);
    peer.protocols = intern_protocols(names);
  }

  // A slice of the population is dual-homed (laptop + mobile uplink, or a
  // churning consumer address): their second address is what makes §V-A's
  // group count smaller than its IP count (47'516 < 56'536).
  for (RemotePeer& peer : peers_) {
    const double multi_ip_probability = [&] {
      switch (peer.category) {
        case Category::kCoreClient: return 0.10;
        case Category::kNormalUser: return 0.10;
        case Category::kOneTime: return 0.08;
        default: return 0.0;
      }
    }();
    if (multi_ip_probability > 0.0 && rng.bernoulli(multi_ip_probability)) {
      peer.alt_ip = ips.unique_v4();
      peer.has_alt_ip = true;
    }
  }

  assign_nat_groups(rng, ips);
}

void Population::assign_nat_groups(common::Rng& rng, net::IpAllocator& ips) {
  // Collect peers eligible for shared household/cloud IPs.
  std::vector<std::uint32_t> eligible;
  for (const RemotePeer& peer : peers_) {
    switch (peer.category) {
      case Category::kCoreClient:
      case Category::kNormalUser:
      case Category::kOneTime:
      case Category::kLightClient:
        eligible.push_back(peer.index);
        break;
      default:
        break;
    }
  }
  // Deterministic shuffle.
  for (std::size_t i = eligible.size(); i > 1; --i) {
    std::swap(eligible[i - 1], eligible[rng.uniform_u64(i)]);
  }
  std::size_t cursor = 0;
  const std::uint32_t groups = scaled(spec_.counts.nat_groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(
        spec_.counts.nat_group_min, spec_.counts.nat_group_max));
    if (cursor + size > eligible.size()) break;
    const auto ip = ips.shared_v4("nat-" + std::to_string(g));
    for (std::size_t i = 0; i < size; ++i) {
      peers_[eligible[cursor++]].ip = ip;
    }
  }
}

}  // namespace ipfs::scenario
