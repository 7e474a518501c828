// Pluggable network-condition models (DESIGN.md §9).
//
// `ConditionSpec` is the declarative description of everything the
// simulated fabric does to traffic beyond "deliver it after a flat
// latency": geographic zones with an inter/intra-zone latency matrix,
// dial-failure and message-loss probabilities, NAT reachability classes
// that gate inbound dials, and scheduled disturbances (zone outages,
// partitions, degradation windows) driven by the simulation clock.
// `ConditionModel` is the compiled runtime form sampled by `net::Network`
// on every dial/send and consulted by `scenario::CampaignEngine` when a
// scenario file carries a `"network"` section (docs/SCENARIOS.md).
//
// Determinism contract (DESIGN.md §5): every gate is a *pure hash* of
// (endpoints, time, model seed) — no mutable RNG state — so verdicts are
// independent of call order, and parallel trial runners stay
// byte-identical at any worker count.  Latency jitter is the one sampled
// quantity; it draws from the caller-owned jitter RNG exactly like the
// flat `LatencyModel` always did, so a default-constructed model is
// bit-for-bit the pre-conditions fabric.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::net {

/// Pairwise latency model: deterministic base per pair plus jitter.  The
/// flat fallback used when a `ConditionSpec` declares no zones, and the
/// carrier of the jitter fraction shared by the zoned path.
struct LatencyModel {
  common::SimDuration min_one_way = 5 * common::kMillisecond;
  common::SimDuration max_one_way = 150 * common::kMillisecond;
  double jitter_fraction = 0.2;

  [[nodiscard]] common::SimDuration one_way(const p2p::PeerId& a, const p2p::PeerId& b,
                                            common::Rng& jitter_rng) const;

  [[nodiscard]] bool operator==(const LatencyModel&) const = default;
};

/// A geographic zone; nodes are assigned by weighted hash of their PeerId.
struct ZoneSpec {
  std::string name;
  double weight = 1.0;  ///< share of nodes landing here (normalised)
  /// One-way latency range between two nodes of this zone.
  common::SimDuration intra_min = 5 * common::kMillisecond;
  common::SimDuration intra_max = 30 * common::kMillisecond;

  [[nodiscard]] bool operator==(const ZoneSpec&) const = default;
};

/// One-way latency range for an inter-zone pair.  Pairs without an entry
/// use `ConditionSpec::default_link`.
struct ZoneLinkSpec {
  std::string from;
  std::string to;
  common::SimDuration min_one_way = 40 * common::kMillisecond;
  common::SimDuration max_one_way = 180 * common::kMillisecond;

  [[nodiscard]] bool operator==(const ZoneLinkSpec&) const = default;
};

/// Latency range applied to inter-zone pairs with no explicit link entry.
struct DefaultLinkSpec {
  common::SimDuration min_one_way = 40 * common::kMillisecond;
  common::SimDuration max_one_way = 180 * common::kMillisecond;

  [[nodiscard]] bool operator==(const DefaultLinkSpec&) const = default;
};

/// Probabilistic impairments applied to every dial / message.
struct LossSpec {
  double dial_failure = 0.0;  ///< P(dial attempt fails outright)
  double message_loss = 0.0;  ///< P(sent message silently dropped)

  [[nodiscard]] bool operator==(const LossSpec&) const = default;
};

/// A NAT reachability class; nodes are assigned by weighted hash unless a
/// category mapping overrides the class (campaign populations).
struct NatClassSpec {
  std::string name;
  double weight = 1.0;
  bool accepts_inbound = true;  ///< false: inbound dials to members fail

  [[nodiscard]] bool operator==(const NatClassSpec&) const = default;
};

struct NatSpec {
  std::vector<NatClassSpec> classes;  ///< empty: everyone is reachable
  /// Category name -> class name; keys are opaque strings to net/ (the
  /// scenario layer validates them against `scenario::Category` names).
  std::vector<std::pair<std::string, std::string>> categories;

  [[nodiscard]] bool operator==(const NatSpec&) const = default;
};

/// A scheduled disturbance window, driven by the simulation clock.  With
/// `period > 0` the window recurs every period (diurnal degradation);
/// otherwise it fires once.
struct DisturbanceSpec {
  enum class Kind : std::uint8_t {
    kOutage,     ///< `zone` is fully offline: dials fail, messages drop
    kPartition,  ///< traffic crossing the `zones` boundary fails
    kDegrade,    ///< latency x factor, extra loss, in `zone` ("" = global)
  };

  Kind kind = Kind::kDegrade;
  std::string zone;                ///< outage/degrade target ("" = global degrade)
  std::vector<std::string> zones;  ///< partition members (cut from the rest)
  common::SimTime from = 0;
  common::SimTime until = 0;
  common::SimDuration period = 0;  ///< 0 = one-shot; else recur every period
  double latency_factor = 1.0;     ///< degrade only, >= 1
  double extra_loss = 0.0;         ///< degrade only, added to both loss gates

  /// True when the window (including recurrences) covers `now`.
  [[nodiscard]] bool active_at(common::SimTime now) const noexcept;

  [[nodiscard]] bool operator==(const DisturbanceSpec&) const = default;
};

[[nodiscard]] std::string_view to_string(DisturbanceSpec::Kind kind) noexcept;
[[nodiscard]] std::optional<DisturbanceSpec::Kind> disturbance_kind_from_string(
    std::string_view name) noexcept;

/// The full declarative condition description — the `"network"` section of
/// a scenario file.
/// Default-constructed, it reproduces the legacy flat fabric exactly.
struct ConditionSpec {
  LatencyModel latency;  ///< flat fallback + the shared jitter fraction
  bool symmetric = true;  ///< zoned base latency identical in both directions

  std::vector<ZoneSpec> zones;  ///< empty: flat latency, no geography
  DefaultLinkSpec default_link;
  std::vector<ZoneLinkSpec> links;

  LossSpec loss;
  NatSpec nat;
  std::vector<DisturbanceSpec> disturbances;

  [[nodiscard]] bool operator==(const ConditionSpec&) const = default;

  /// Why this spec cannot run, or nullopt when valid.  Errors carry the
  /// scenario-file field path ("network.zones[1]: weight must be > 0").
  /// Rules: non-empty unique zone names, positive weights, 0 < min <= max
  /// latency ranges, links referencing declared zones exactly once per
  /// unordered pair, probabilities in [0, 1], NAT category mappings naming
  /// declared classes, disturbance windows with from < until (fitting the
  /// period when recurring), degrade factors >= 1, and no coinciding
  /// windows of the same kind on the same zone (one-shots compared as
  /// intervals, equal-period recurrences by phase, one-shot vs recurrence
  /// by its post-start remainder).  Recurrences with *different* periods
  /// are allowed: when they coincide at runtime they compose — degrade
  /// factors multiply, extra losses add, outage/partition effects OR.
  [[nodiscard]] static std::optional<std::string> validate(
      const ConditionSpec& spec);
};

/// The compiled runtime form of a `ConditionSpec`: O(1)-ish pure sampling
/// of zone assignment, reachability, loss gates and latency.  Cheap to
/// copy; thread-safe because it is immutable after construction.
class ConditionModel {
 public:
  static constexpr std::size_t kNoZone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kNoClass = static_cast<std::size_t>(-1);

  /// `seed` decorrelates zone/NAT assignment and the loss gates from every
  /// other RNG-tree branch; the spec is assumed valid (callers run
  /// `ConditionSpec::validate` first — the scenario layer always does).
  explicit ConditionModel(ConditionSpec spec = {}, std::uint64_t seed = 0);

  [[nodiscard]] const ConditionSpec& spec() const noexcept { return spec_; }

  /// Zone index of `id` (stable weighted hash), kNoZone without zones.
  [[nodiscard]] std::size_t zone_of(const p2p::PeerId& id) const noexcept;

  /// NAT class of `id`; a non-empty `category` with a spec mapping forces
  /// the mapped class, otherwise the weighted hash decides.  kNoClass
  /// (always reachable) without classes.
  [[nodiscard]] std::size_t nat_class_of(const p2p::PeerId& id,
                                         std::string_view category = {}) const noexcept;

  /// Whether inbound dials to `id` are admitted by its NAT class.
  [[nodiscard]] bool accepts_inbound(const p2p::PeerId& id,
                                     std::string_view category = {}) const noexcept;

  /// No outage or partition separates `a` and `b` at `now`.
  [[nodiscard]] bool path_open(const p2p::PeerId& a, const p2p::PeerId& b,
                               common::SimTime now) const noexcept;

  /// `id`'s zone is inside an active outage window (crawler reachability).
  [[nodiscard]] bool zone_down(const p2p::PeerId& id,
                               common::SimTime now) const noexcept;

  /// `id`'s zone is a member of an active partition — cut off from "the
  /// rest" of the network, where external observers (crawlers) sit.
  [[nodiscard]] bool zone_partitioned(const p2p::PeerId& id,
                                      common::SimTime now) const noexcept;

  /// Pure pseudo-random dial-failure gate for one (from, to, now) attempt:
  /// base dial_failure plus any active degrade extra_loss on the path.
  [[nodiscard]] bool dial_failure(const p2p::PeerId& from, const p2p::PeerId& to,
                                  common::SimTime now) const noexcept;

  /// Pure pseudo-random message-loss gate (base message_loss + degrades).
  [[nodiscard]] bool message_lost(const p2p::PeerId& from, const p2p::PeerId& to,
                                  common::SimTime now) const noexcept;

  /// The composite dial verdict `Network::dial` applies: target NAT class,
  /// outages/partitions, then the dial-failure gate.
  [[nodiscard]] bool dial_allowed(const p2p::PeerId& from, const p2p::PeerId& to,
                                  common::SimTime now,
                                  std::string_view to_category = {}) const noexcept {
    return accepts_inbound(to, to_category) && path_open(from, to, now) &&
           !dial_failure(from, to, now);
  }

  /// One-way latency at `now`.  Flat specs delegate to `LatencyModel`
  /// bit-for-bit; zoned specs draw the base from the pair's zone-matrix
  /// range (deterministic per pair), multiply by active degrade factors,
  /// then apply jitter.  Exactly one `jitter_rng` draw either way.
  [[nodiscard]] common::SimDuration one_way(const p2p::PeerId& a, const p2p::PeerId& b,
                                            common::SimTime now,
                                            common::Rng& jitter_rng) const;

 private:
  struct Range {
    common::SimDuration min = 0;
    common::SimDuration max = 0;
  };

  [[nodiscard]] double degrade_factor(std::size_t zone_a, std::size_t zone_b,
                                      common::SimTime now) const noexcept;
  [[nodiscard]] double extra_loss(const p2p::PeerId& a, const p2p::PeerId& b,
                                  common::SimTime now) const noexcept;
  [[nodiscard]] std::size_t weighted_pick(std::uint64_t hash,
                                          const std::vector<double>& cumulative)
      const noexcept;

  ConditionSpec spec_;
  std::uint64_t seed_ = 0;
  std::vector<double> zone_cumulative_;  ///< prefix sums of zone weights
  std::vector<double> nat_cumulative_;   ///< prefix sums of class weights
  std::vector<Range> link_matrix_;       ///< zones x zones latency ranges
  /// Disturbance zone targets resolved to indices (kNoZone = global); the
  /// partition membership is a per-disturbance zone bitset.
  struct CompiledDisturbance {
    std::size_t zone = kNoZone;
    std::vector<bool> members;  ///< partition membership by zone index
  };
  std::vector<CompiledDisturbance> compiled_;
  // Hot-path short circuits: degrade-only specs (the common case) skip
  // zone resolution and the disturbance scan in path_open / zone_down.
  bool has_blocking_ = false;   ///< any outage or partition declared
  bool has_outage_ = false;     ///< any outage declared
  bool has_partition_ = false;  ///< any partition declared
};

}  // namespace ipfs::net
