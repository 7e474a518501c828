// Population specification: the synthetic December-2021 IPFS network.
//
// Every constant here is calibrated against a number the paper reports:
//   - category sizes     → Table IV class counts + §IV-B agent tallies
//   - agent tables       → Fig. 3 (323 agent strings, 263 go-ipfs versions)
//   - protocol sets      → Fig. 4 (101 protocols, kad 18'845, bitswap 44'463)
//   - IP policies        → §V-A grouping (56'536 IPs, hydra 11-IP clusters,
//                          one IP with 2'156 rotating PIDs)
//   - session/contact    → Table II churn magnitudes and Fig. 7 CDF shapes
// The builder produces concrete `RemotePeer`s; scenario::CampaignEngine
// animates them against the vantage nodes.
//
// Populations are configured two ways: directly in C++ (the calibrated
// defaults below plus per-category `overrides`), or declaratively through a
// `scenario::ScenarioSpec` JSON file run by the `ipfs_sim` CLI — see
// docs/SCENARIOS.md for the schema.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "p2p/multiaddr.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::scenario {

using common::SimDuration;

/// Behavioural category of a simulated remote peer.
enum class Category : std::uint8_t {
  kHydra,           ///< remote hydra-booster heads (1'028 PIDs on 11 IPs)
  kCoreServer,      ///< always-on go-ipfs DHT servers
  kCoreClient,      ///< always-on go-ipfs DHT clients (the core user base)
  kNormalUser,      ///< one multi-hour session per period
  kLightServer,     ///< recurring flaky servers (incl. disguised storm)
  kLightClient,     ///< recurring experimental clients
  kCrawler,         ///< active crawlers: very many short connections
  kOneTime,         ///< connect once or twice, never return
  kRotatingPid,     ///< one operator cycling PIDs behind one IP
  kEphemeral,       ///< so short-lived identify never completes ("missing")
  kEthereum,        ///< the paper's lone go-ethereum curiosity
};

[[nodiscard]] std::string_view to_string(Category category) noexcept;
/// Inverse of `to_string`; nullopt for unknown names (spec validation).
[[nodiscard]] std::optional<Category> category_from_string(
    std::string_view name) noexcept;
inline constexpr std::size_t kCategoryCount = 11;

/// How a peer's sessions recur.
enum class SessionKind : std::uint8_t {
  kAlwaysOn,   ///< online for the entire measurement
  kRecurring,  ///< alternating online/offline periods
  kOneShot,    ///< single session at a random time, then gone
};

[[nodiscard]] std::string_view to_string(SessionKind kind) noexcept;
[[nodiscard]] std::optional<SessionKind> session_kind_from_string(
    std::string_view name) noexcept;

/// Per-category behaviour parameters.
struct CategoryParams {
  Category category = Category::kOneTime;
  SessionKind session = SessionKind::kAlwaysOn;
  SimDuration mean_session = 0;  ///< session length (recurring / one-shot)
  SimDuration mean_gap = 0;      ///< offline gap (recurring)

  bool dht_server = false;       ///< announces /ipfs/kad/1.0.0
  /// Probability of keeping a *maintained* connection per server vantage.
  double maintain_probability = 0.0;
  /// How long the remote side retains a maintained connection before its
  /// own connection manager trims it (exponential mean).
  SimDuration retention_mean = 0;
  /// Rate of short query connections while online (per hour, Poisson).
  double queries_per_hour = 0.0;
  /// Median of the lognormal query-connection duration.
  SimDuration query_duration_median = 80 * common::kSecond;
  /// After the vantage trims a maintained connection: reconnect?
  bool reconnect_after_trim = false;
  SimDuration reconnect_backoff_mean = 25 * common::kMinute;
  /// Fraction of this category reachable by an active crawler when online
  /// (NAT'd servers hide from crawls; §III-C).
  double crawl_visibility = 0.92;

  [[nodiscard]] bool operator==(const CategoryParams&) const = default;
};

/// A `Population`'s interned agent string (`Population::agent`); 0 is the
/// empty agent.
using AgentId = std::uint32_t;
/// A `Population`'s interned protocol set (`Population::protocols`); 0 is
/// the empty set.
using ProtocolSetId = std::uint32_t;

/// A fully materialised remote peer, as a fixed-size record.  The agent and
/// the protocol set are ids into tables its `Population` owns, shared by
/// every peer announcing the same strings; a change gives the peer another
/// id and never edits a shared entry (DESIGN.md §7, "Population layout").
struct RemotePeer {
  p2p::PeerId pid;
  p2p::IpAddress ip;
  /// Some peers (dual-homed / address-churning) connect from a second IP;
  /// this is what makes §V-A's group count smaller than its IP count.
  p2p::IpAddress alt_ip;
  /// Pre-sampled one-shot session window (kOneShot only).
  common::SimTime session_start = 0;
  SimDuration session_length = 0;
  std::uint32_t index = 0;
  AgentId agent = 0;  ///< 0 (empty): identify never completes ("missing")
  ProtocolSetId protocols = 0;
  std::uint16_t port = 4001;
  Category category = Category::kOneTime;
  bool has_alt_ip = false;
  bool dht_server = false;
};
static_assert(sizeof(RemotePeer) <= 128, "RemotePeer is the population's record");

/// Absolute-count knobs (3-day baseline, scaled by `scale`).
struct PopulationCounts {
  // §IV-B / §V-A anchored counts.
  std::uint32_t hydra_heads = 1028;
  std::uint32_t core_servers = 420;
  std::uint32_t core_clients = 9500;
  std::uint32_t normal_users = 15900;
  std::uint32_t light_servers = 9755;  ///< incl. disguised_storm below
  std::uint32_t disguised_storm = 7498;
  std::uint32_t light_clients = 6539;
  std::uint32_t crawlers = 586;
  /// One-shot arrivals per *day* (fuels Fig. 6 PID growth).
  std::uint32_t one_time_per_day = 6400;
  std::uint32_t ephemeral_per_day = 1020;  ///< the "missing agent" stream
  /// The §V-A mega-group: new PIDs per day behind one IP.
  std::uint32_t rotating_pids_per_day = 773;
  std::uint32_t ethereum_nodes = 1;
  /// NAT households / small clouds sharing IPs (other multi-PID groups).
  std::uint32_t nat_groups = 2500;
  std::uint32_t nat_group_min = 2;
  std::uint32_t nat_group_max = 8;

  [[nodiscard]] bool operator==(const PopulationCounts&) const = default;
};

/// The full specification: counts + behaviour + metadata tables.
struct PopulationSpec {
  PopulationCounts counts;
  double scale = 1.0;  ///< scales every count (tests use small scales)

  /// Per-category behaviour overrides; unset slots use `default_params`.
  /// This is how declarative scenarios reshape session/contact
  /// distributions (e.g. the diurnal weekend workload) without recompiling.
  std::array<std::optional<CategoryParams>, kCategoryCount> overrides{};

  [[nodiscard]] static PopulationSpec paper_scale() { return {}; }
  [[nodiscard]] static PopulationSpec test_scale(double scale_factor) {
    PopulationSpec spec;
    spec.scale = scale_factor;
    return spec;
  }

  /// The behaviour of `category` under this spec: the override when one is
  /// set, the calibrated default otherwise.  Population and CampaignEngine
  /// read all behaviour through this accessor.
  [[nodiscard]] const CategoryParams& params(Category category) const;

  void set_override(Category category, CategoryParams params) {
    overrides[static_cast<std::size_t>(category)] = params;
  }

  [[nodiscard]] bool operator==(const PopulationSpec&) const = default;
};

/// Behaviour table (shared by all specs; see the calibration notes above).
[[nodiscard]] const CategoryParams& default_params(Category category);

/// Sample a go-ipfs agent string following Fig. 3's version mix.  `dirty`
/// builds carry a "-dirty" commit suffix.
[[nodiscard]] std::string sample_go_ipfs_agent(common::Rng& rng);

/// Sample a non-go-ipfs agent string (Fig. 3's "other" mix: storm, ioi,
/// go-qkfile, ant, …).
[[nodiscard]] std::string sample_other_agent(common::Rng& rng);

/// The protocol set a peer of this role announces (Fig. 4), written to
/// `out` (cleared first).  Every name is a constant, so the views never
/// dangle.
void protocols_for(Category category, bool dht_server, std::string_view agent,
                   common::Rng& rng, std::vector<std::string_view>& out);

}  // namespace ipfs::scenario
