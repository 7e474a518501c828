#include "scenario/population_spec.hpp"

#include <array>
#include <cstdio>

#include "p2p/protocols.hpp"

namespace ipfs::scenario {

namespace proto = p2p::protocols;
using common::kHour;
using common::kMinute;
using common::kSecond;

std::string_view to_string(Category category) noexcept {
  switch (category) {
    case Category::kHydra: return "hydra";
    case Category::kCoreServer: return "core-server";
    case Category::kCoreClient: return "core-client";
    case Category::kNormalUser: return "normal-user";
    case Category::kLightServer: return "light-server";
    case Category::kLightClient: return "light-client";
    case Category::kCrawler: return "crawler";
    case Category::kOneTime: return "one-time";
    case Category::kRotatingPid: return "rotating-pid";
    case Category::kEphemeral: return "ephemeral";
    case Category::kEthereum: return "ethereum";
  }
  return "?";
}

std::optional<Category> category_from_string(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const auto category = static_cast<Category>(i);
    if (to_string(category) == name) return category;
  }
  return std::nullopt;
}

std::string_view to_string(SessionKind kind) noexcept {
  switch (kind) {
    case SessionKind::kAlwaysOn: return "always-on";
    case SessionKind::kRecurring: return "recurring";
    case SessionKind::kOneShot: return "one-shot";
  }
  return "?";
}

std::optional<SessionKind> session_kind_from_string(std::string_view name) noexcept {
  for (const SessionKind kind :
       {SessionKind::kAlwaysOn, SessionKind::kRecurring, SessionKind::kOneShot}) {
    if (to_string(kind) == name) return kind;
  }
  return std::nullopt;
}

const CategoryParams& default_params(Category category) {
  // Calibration notes (all targets from the paper; see header comment):
  //  - retention means set so that P4-style runs (no local trim) yield
  //    Table II's All-avg ≈ 1 h, Peer-avg ≈ 5.5 h, median ≈ 85 s;
  //  - reconnect backoffs set so that P0-style runs (600/900 watermarks)
  //    yield ~20 connections per core peer over 3 d (1.28 M total);
  //  - query rates set so a 1-day run produces ≈ 285 k connections.
  static const std::array<CategoryParams, kCategoryCount> kTable = [] {
    std::array<CategoryParams, kCategoryCount> table{};

    CategoryParams hydra;
    hydra.category = Category::kHydra;
    hydra.session = SessionKind::kAlwaysOn;
    hydra.dht_server = true;
    hydra.maintain_probability = 1.0;
    hydra.retention_mean = 60 * kHour;  // hydras run high watermarks
    hydra.queries_per_hour = 0.8;
    hydra.reconnect_after_trim = true;
    hydra.reconnect_backoff_mean = 30 * kMinute;
    hydra.crawl_visibility = 0.99;
    table[static_cast<std::size_t>(Category::kHydra)] = hydra;

    CategoryParams core_server;
    core_server.category = Category::kCoreServer;
    core_server.session = SessionKind::kAlwaysOn;
    core_server.dht_server = true;
    core_server.maintain_probability = 1.0;
    core_server.retention_mean = 40 * kHour;
    core_server.queries_per_hour = 0.4;
    core_server.reconnect_after_trim = true;
    core_server.reconnect_backoff_mean = 25 * kMinute;
    core_server.crawl_visibility = 0.98;
    table[static_cast<std::size_t>(Category::kCoreServer)] = core_server;

    CategoryParams core_client;
    core_client.category = Category::kCoreClient;
    core_client.session = SessionKind::kAlwaysOn;
    core_client.dht_server = false;
    core_client.maintain_probability = 1.0;
    core_client.retention_mean = 36 * kHour;
    core_client.queries_per_hour = 0.10;
    core_client.reconnect_after_trim = true;
    core_client.reconnect_backoff_mean = 35 * kMinute;
    core_client.crawl_visibility = 0.0;  // clients are invisible to crawls
    table[static_cast<std::size_t>(Category::kCoreClient)] = core_client;

    CategoryParams normal;
    normal.category = Category::kNormalUser;
    normal.session = SessionKind::kOneShot;
    normal.mean_session = 9 * kHour;  // clipped into (2 h, 24 h) at build
    normal.dht_server = false;        // 9 % become servers at build time
    normal.maintain_probability = 1.0;
    normal.retention_mean = 7 * kHour;
    normal.queries_per_hour = 0.04;
    normal.reconnect_after_trim = true;
    normal.reconnect_backoff_mean = 40 * kMinute;
    normal.crawl_visibility = 0.85;
    table[static_cast<std::size_t>(Category::kNormalUser)] = normal;

    CategoryParams light_server;
    light_server.category = Category::kLightServer;
    light_server.session = SessionKind::kRecurring;
    light_server.mean_session = 12 * kHour;
    light_server.mean_gap = 5 * kHour;
    light_server.dht_server = true;
    light_server.maintain_probability = 0.25;
    light_server.retention_mean = 25 * kMinute;
    light_server.queries_per_hour = 0.12;
    light_server.reconnect_after_trim = false;
    light_server.crawl_visibility = 0.75;
    table[static_cast<std::size_t>(Category::kLightServer)] = light_server;

    CategoryParams light_client;
    light_client.category = Category::kLightClient;
    light_client.session = SessionKind::kRecurring;
    light_client.mean_session = 6 * kHour;
    light_client.mean_gap = 8 * kHour;
    light_client.dht_server = false;
    light_client.maintain_probability = 0.25;
    light_client.retention_mean = 15 * kMinute;
    light_client.queries_per_hour = 0.25;
    light_client.reconnect_after_trim = false;
    light_client.crawl_visibility = 0.0;
    table[static_cast<std::size_t>(Category::kLightClient)] = light_client;

    CategoryParams crawler;
    crawler.category = Category::kCrawler;
    crawler.session = SessionKind::kAlwaysOn;
    crawler.dht_server = false;
    crawler.maintain_probability = 0.0;
    crawler.retention_mean = 0;
    crawler.queries_per_hour = 5.5;  // ≈ 130 visits/day — crawl sweeps
    crawler.query_duration_median = 45 * kSecond;
    crawler.reconnect_after_trim = false;
    crawler.crawl_visibility = 0.0;
    table[static_cast<std::size_t>(Category::kCrawler)] = crawler;

    CategoryParams one_time;
    one_time.category = Category::kOneTime;
    one_time.session = SessionKind::kOneShot;
    one_time.mean_session = 35 * kMinute;
    one_time.dht_server = false;  // 32 % become servers at build time
    one_time.maintain_probability = 0.75;
    one_time.retention_mean = 25 * kMinute;
    one_time.queries_per_hour = 0.1;
    one_time.reconnect_after_trim = false;
    one_time.crawl_visibility = 0.5;
    table[static_cast<std::size_t>(Category::kOneTime)] = one_time;

    CategoryParams rotating;
    rotating.category = Category::kRotatingPid;
    rotating.session = SessionKind::kOneShot;
    rotating.mean_session = 4 * kMinute;
    rotating.dht_server = false;
    rotating.maintain_probability = 1.0;
    rotating.retention_mean = 3 * kMinute;
    rotating.queries_per_hour = 0.0;
    rotating.reconnect_after_trim = false;
    rotating.crawl_visibility = 0.0;
    table[static_cast<std::size_t>(Category::kRotatingPid)] = rotating;

    CategoryParams ephemeral;
    ephemeral.category = Category::kEphemeral;
    ephemeral.session = SessionKind::kOneShot;
    ephemeral.mean_session = 150 * kSecond;  // a couple of minutes, no identify
    ephemeral.dht_server = false;
    ephemeral.maintain_probability = 1.0;
    ephemeral.retention_mean = 100 * kSecond;
    ephemeral.queries_per_hour = 0.0;
    ephemeral.reconnect_after_trim = false;
    ephemeral.crawl_visibility = 0.0;
    table[static_cast<std::size_t>(Category::kEphemeral)] = ephemeral;

    CategoryParams ethereum;
    ethereum.category = Category::kEthereum;
    ethereum.session = SessionKind::kAlwaysOn;
    ethereum.dht_server = false;
    ethereum.maintain_probability = 1.0;
    ethereum.retention_mean = 30 * kHour;
    ethereum.queries_per_hour = 0.1;
    ethereum.reconnect_after_trim = true;
    ethereum.crawl_visibility = 0.0;
    table[static_cast<std::size_t>(Category::kEthereum)] = ethereum;

    return table;
  }();
  return kTable[static_cast<std::size_t>(category)];
}

const CategoryParams& PopulationSpec::params(Category category) const {
  const auto& overridden = overrides[static_cast<std::size_t>(category)];
  return overridden ? *overridden : default_params(category);
}

namespace {

/// The one custom protocol under /x/ some go-ipfs builds announce.
constexpr std::string_view kXCustom = "/x/custom/1.0";
static_assert(kXCustom.starts_with(proto::kX));

struct VersionWeight {
  const char* version;
  double weight;
};

/// Fig. 3's go-ipfs version mix (grouped bars), normalised weights.
constexpr VersionWeight kGoIpfsVersions[] = {
    {"0.8.0", 21.0},     // largest bar (includes the disguised storm block)
    {"0.11.0", 18.0},   {"0.10.0", 13.0},    {"0.9.1", 7.0},
    {"0.7.0", 5.0},     {"0.4.22", 4.4},     {"0.6.0", 3.6},
    {"0.4.23", 3.0},    {"0.9.0", 1.8},      {"0.4.21", 1.6},
    {"0.11.0-dev", 0.9},{"0.5.0-dev", 0.8},  {"0.12.0-dev", 0.4},
    {"0.5.1", 1.1},     {"0.6.1", 0.6},
};

struct OtherAgentWeight {
  const char* agent;
  double weight;
};

/// Fig. 3's non-go-ipfs mix ("other" block + named curiosities).
constexpr OtherAgentWeight kOtherAgents[] = {
    {"storm", 38.0},
    {"ioi", 22.0},
    {"go-qkfile/0.9.1/", 6.0},
    {"ant/0.2.1/fe027af", 4.0},
    {"rust-libp2p/0.40.0", 5.0},
    {"js-libp2p/0.30.0", 4.0},
    {"lotus-1.13.0", 3.0},
    {"go-libp2p/0.15.0", 3.5},
    {"berty/2.0", 1.5},
    {"iroha/0.3", 1.0},
    {"edgevpn/0.8", 1.0},
    {"keep-client/1.3", 1.0},
    {"textile/2.6", 1.0},
    {"p2pd/0.5", 0.8},
    {"openbazaar-go/0.14", 0.7},
};

std::string random_commit(common::Rng& rng, bool dirty) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%08llx",
                static_cast<unsigned long long>(rng() & 0xffffffffULL));
  std::string commit = buffer;
  if (dirty) commit += "-dirty";
  return commit;
}

/// Release builds of the same version share one commit hash; only people
/// building from source produce novel commit strings.  This keeps the
/// distinct-agent-string count near the paper's 323.
std::string release_commit(std::string_view version) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%08llx",
                static_cast<unsigned long long>(common::hash64(version)) &
                    0xffffffffULL);
  return buffer;
}

}  // namespace

std::string sample_go_ipfs_agent(common::Rng& rng) {
  double total = 0.0;
  for (const VersionWeight& vw : kGoIpfsVersions) total += vw.weight;
  // 6 % of go-ipfs agents carry a rare long-tail version drawn from a
  // bounded pool of ~270 pre-release builds; this is how the dataset
  // reaches the paper's 263 distinct go-ipfs version strings.
  if (rng.bernoulli(0.015)) {
    char version[32];
    std::snprintf(version, sizeof(version), "0.%d.%d-rc%d",
                  static_cast<int>(rng.uniform_int(4, 12)),
                  static_cast<int>(rng.uniform_int(0, 2)),
                  static_cast<int>(rng.uniform_int(1, 3)));
    return std::string("go-ipfs/") + version + "/" + release_commit(version);
  }
  double point = rng.uniform() * total;
  const char* chosen = kGoIpfsVersions[0].version;
  for (const VersionWeight& vw : kGoIpfsVersions) {
    point -= vw.weight;
    if (point < 0.0) {
      chosen = vw.version;
      break;
    }
  }
  // ~4 % of users run self-built binaries with novel (often dirty) commits;
  // everyone else announces the shared release commit of their version.
  if (rng.bernoulli(0.002)) {
    return std::string("go-ipfs/") + chosen + "/" +
           random_commit(rng, rng.bernoulli(0.5));
  }
  return std::string("go-ipfs/") + chosen + "/" + release_commit(chosen);
}

std::string sample_other_agent(common::Rng& rng) {
  double total = 0.0;
  for (const OtherAgentWeight& aw : kOtherAgents) total += aw.weight;
  double point = rng.uniform() * total;
  for (const OtherAgentWeight& aw : kOtherAgents) {
    point -= aw.weight;
    if (point < 0.0) return aw.agent;
  }
  return kOtherAgents[0].agent;
}

void protocols_for(Category category, bool dht_server, std::string_view agent,
                   common::Rng& rng, std::vector<std::string_view>& out) {
  out.clear();
  auto add = [&out](std::string_view p) { out.push_back(p); };

  if (agent.empty()) return;  // identify never completed

  // Baseline libp2p surface nearly everyone announces (Fig. 4: id/ping/
  // relay at ≈ full height).
  add(proto::kIdentify);
  add(proto::kIdentifyPush);
  add(proto::kPing);
  add(proto::kRelayV1);
  if (rng.bernoulli(0.35)) add(proto::kRelayV2Stop);

  if (dht_server) add(proto::kKad);

  const bool is_go_ipfs = agent.starts_with("go-ipfs/");
  const bool is_disguised_storm = is_go_ipfs && category == Category::kLightServer &&
                                  agent.find("/0.8.0/") != std::string_view::npos;
  const bool is_storm = agent == "storm";
  const bool is_ioi = agent == "ioi";
  const bool is_hydra = agent.starts_with("hydra-booster");
  const bool is_crawler = category == Category::kCrawler;

  if (is_storm || is_disguised_storm) {
    // The §IV-B fingerprint: storm-family nodes announce sbptp/sfst and,
    // crucially, *no* bitswap even when claiming to be go-ipfs.
    add(proto::kSbptp);
    add(proto::kSfst1);
    if (rng.bernoulli(0.5)) add(proto::kSfst2);
    return;
  }
  if (is_ioi) {
    add(proto::kIoiDial);
    add(proto::kIoiPortssub);
    add(proto::kFloodsub);
    return;
  }
  if (is_hydra) {
    return;  // heads serve DHT + base protocols only
  }
  if (is_crawler) {
    return;  // crawlers identify but serve nothing
  }

  if (is_go_ipfs) {
    add(proto::kBitswap100);
    add(proto::kBitswap110);
    add(proto::kBitswap120);
    add(proto::kBitswap);
    add(proto::kMeshsub10);
    if (rng.bernoulli(0.7)) add(proto::kMeshsub11);
    if (rng.bernoulli(0.72)) add(proto::kAutonat);
    if (rng.bernoulli(0.2)) add(proto::kFetch);
    if (rng.bernoulli(0.1)) add(proto::kDelta);
    if (rng.bernoulli(0.03)) add(kXCustom);
  } else {
    // Other libp2p stacks: partial surfaces.
    if (rng.bernoulli(0.55)) add(proto::kBitswap120);
    if (rng.bernoulli(0.4)) add(proto::kMeshsub11);
    if (rng.bernoulli(0.3)) add(proto::kFloodsub);
    if (rng.bernoulli(0.25)) add(proto::kAutonat);
  }
}

}  // namespace ipfs::scenario
