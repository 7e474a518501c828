// Population builder: materialises the synthetic peer population described
// by a `PopulationSpec` (identities, IPs, agents, protocol sets, session
// windows) for a measurement period of a given duration.
//
// Behaviour is read through `PopulationSpec::params`, so per-category
// overrides — whether set in C++ or parsed from a scenario file by
// `scenario::ScenarioSpec` — reshape the materialised population without
// code changes.
//
// Layout (DESIGN.md §7, "Population layout"): one vector of fixed-size
// `RemotePeer` records.  The few hundred distinct agent strings and
// protocol sets live once each in append-only tables the records index.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interned_names.hpp"
#include "common/rng.hpp"
#include "net/ip_allocator.hpp"
#include "scenario/population_spec.hpp"

namespace ipfs::scenario {

/// The materialised population for one campaign.
class Population {
 public:
  /// Build a population for a run of `duration`.  Arrival-stream categories
  /// (one-time, ephemeral, rotating) scale with duration; standing
  /// categories are duration-independent.
  Population(const PopulationSpec& spec, common::SimDuration duration,
             common::Rng rng);

  [[nodiscard]] const std::vector<RemotePeer>& peers() const noexcept {
    return peers_;
  }
  [[nodiscard]] std::vector<RemotePeer>& peers() noexcept { return peers_; }
  [[nodiscard]] const PopulationSpec& spec() const noexcept { return spec_; }

  [[nodiscard]] std::size_t count(Category category) const;

  /// Peers announcing /ipfs/kad/1.0.0 (potential crawler targets).
  [[nodiscard]] std::size_t dht_server_count() const;

  /// The agent string behind `id`; valid as long as the population.
  [[nodiscard]] const std::string& agent(AgentId id) const { return agents_.name(id); }
  /// The protocol names of set `id`, sorted; the views stay valid as long as
  /// the population.
  [[nodiscard]] std::span<const std::string_view> protocols(ProtocolSetId id) const {
    return sets_[id].names;
  }
  /// Whether set `id` holds /ipfs/kad/1.0.0: the crawler's server test.
  [[nodiscard]] bool announces_kad(ProtocolSetId id) const { return sets_[id].kad; }
  [[nodiscard]] std::size_t agent_count() const noexcept { return agents_.size(); }
  [[nodiscard]] std::size_t protocol_set_count() const noexcept { return sets_.size(); }

  /// Give peer `index` the agent `agent`; false when it already had it.
  /// Peers sharing its previous agent keep theirs.
  bool set_agent(std::uint32_t index, std::string_view agent);
  /// Add `protocol` to peer `index`'s set, or remove it when present.  The
  /// peer moves to the resulting set's id; peers sharing its previous set
  /// keep theirs.
  void toggle_protocol(std::uint32_t index, std::string_view protocol);

 private:
  struct ProtocolSet {
    std::vector<std::string_view> names;  ///< sorted; views into protocol_names_
    bool kad = false;
  };

  void build(common::SimDuration duration, common::Rng root);
  std::uint32_t scaled(std::uint32_t base) const;

  RemotePeer& emplace_peer(Category category, common::Rng& rng, net::IpAllocator& ips);
  void assign_one_shot_window(RemotePeer& peer, common::SimDuration duration,
                              common::Rng& rng);
  void assign_nat_groups(common::Rng& rng, net::IpAllocator& ips);
  /// The id of the set holding exactly `names` (any order, repeats
  /// ignored), appending it when new.
  ProtocolSetId intern_protocols(std::span<const std::string_view> names);

  PopulationSpec spec_;
  std::vector<RemotePeer> peers_;
  common::InternedNames agents_;
  common::InternedNames protocol_names_;
  std::vector<ProtocolSet> sets_;
  /// Set lookup, keyed by the set's sorted protocol-name ids as raw bytes.
  std::unordered_map<std::string, ProtocolSetId> set_ids_;
  /// intern_protocols' and toggle_protocol's working buffers, reused.
  std::vector<std::uint32_t> key_ids_;
  std::string key_;
  std::vector<std::string_view> scratch_;
};

}  // namespace ipfs::scenario
