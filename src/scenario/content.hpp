// Content-routing workload models (DESIGN.md §11).
//
// `ContentSpec` is the declarative description of a content workload:
// per-category publish volumes over a configurable keyspace, the
// provider-record TTL / republish cycle (go-ipfs defaults: 24 h record
// validity, 12 h republish), the bucket-refresh cadence that sweeps
// expired records, and Bitswap fetch traffic rates.  `ContentModel` is
// the compiled runtime form: it answers "which keys does node n provide,
// and when?", "when does n fetch next, and what?" for the consumers that
// animate content flows on the simulation clock —
// `scenario::CampaignEngine` when a scenario file carries a `"content"`
// section (docs/SCENARIOS.md).
//
// Determinism contract (DESIGN.md §5): every draw is a *pure function*
// of (node, key/slot, cycle-index, model seed) — a fresh generator is
// derived per draw, no mutable RNG state is kept — so draws are
// independent of call order and `runtime::ParallelTrialRunner` sweeps
// stay byte-identical at any worker count.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "p2p/peer_id.hpp"
#include "scenario/population_spec.hpp"

namespace ipfs::scenario {

/// Per-category workload override; unset categories use the spec's
/// top-level `publishes_per_peer` / `fetches_per_hour`.
struct ContentCategorySpec {
  Category category = Category::kNormalUser;
  double publishes_per_peer = 0.0;
  double fetches_per_hour = 0.0;

  [[nodiscard]] bool operator==(const ContentCategorySpec&) const = default;
};

/// The full declarative content-workload description — the `"content"`
/// section of a scenario file.
struct ContentSpec {
  /// Size of the keyspace before population scaling; the engine scales it
  /// by `PopulationSpec::scale` (floor 1) so smoke runs stay cheap.
  std::uint32_t keys = 512;

  /// How many keys each online peer provides.  The integer part is
  /// guaranteed; the fractional part is a per-node probability of one
  /// extra key.
  double publishes_per_peer = 2.0;
  /// Poisson-like Bitswap fetch rate per online peer.
  double fetches_per_hour = 1.0;

  /// Provider-record validity (go-ipfs: 24 h).
  common::SimDuration provider_ttl = 24 * common::kHour;
  /// Republish cadence (go-ipfs: 12 h, half the validity window).
  common::SimDuration republish_interval = 12 * common::kHour;
  /// Initial publishes and republish cycles are jittered uniformly over
  /// this window so provide storms never synchronise.
  common::SimDuration publish_spread = common::kHour;
  /// Cadence of the vantage maintenance task: `dht::RecordStore::sweep`
  /// plus bounded replacement-cache eviction of expired blocks.
  common::SimDuration bucket_refresh_interval = 10 * common::kMinute;
  /// Expired blocks evicted per vantage per refresh pass (the replacement
  /// cache keeps that many candidates warm between passes).
  std::uint32_t replacement_cache_size = 16;
  /// Cadence of the records-at-vantage samples a content-enabled
  /// campaign publishes (`measure::ContentSample`).
  common::SimDuration sample_interval = common::kHour;

  /// Probability that a fetch whose provider lookup succeeded is actually
  /// served a block (models dead providers / unreachable hosts).
  double fetch_success = 0.97;

  std::vector<ContentCategorySpec> categories;

  /// Why this spec cannot run, or nullopt when valid.  Errors carry the
  /// scenario-file field path ("content: keys must be >= 1").
  [[nodiscard]] static std::optional<std::string> validate(const ContentSpec& spec);

  [[nodiscard]] bool operator==(const ContentSpec&) const = default;
};

/// The compiled runtime form of a `ContentSpec`: pure per-(node, slot,
/// cycle) sampling of publish schedules, fetch arrivals and service
/// outcomes.  Cheap to copy; thread-safe because it is immutable after
/// construction.
class ContentModel {
 public:
  /// `seed` decorrelates content draws from every other RNG-tree branch;
  /// the spec is assumed valid (callers run `ContentSpec::validate`
  /// first — the scenario layer always does).
  explicit ContentModel(ContentSpec spec = {}, std::uint64_t seed = 0);

  [[nodiscard]] const ContentSpec& spec() const noexcept { return spec_; }

  /// How many keys node `node` provides: the integer part of the
  /// category's `publishes_per_peer` plus a stable-hash coin for the
  /// fractional part.
  [[nodiscard]] std::uint32_t publish_count(std::uint32_t node,
                                            Category category) const noexcept;

  /// The keyspace index node `node` provides in publish slot `slot`
  /// (uniform over `keyspace`; distinct slots may collide, as real
  /// providers of popular content do).
  [[nodiscard]] std::uint32_t key_for(std::uint32_t node, std::uint32_t slot,
                                      std::uint32_t keyspace) const noexcept;

  /// Delay from the start of a node's session to its first provide of
  /// slot `slot`, uniform in [0, publish_spread).
  [[nodiscard]] common::SimDuration initial_publish_delay(
      std::uint32_t node, std::uint32_t slot) const noexcept;

  /// Jitter added to republish cycle `cycle` of slot `slot`, uniform in
  /// [0, publish_spread) — keeps the 12 h cadence from synchronising.
  [[nodiscard]] common::SimDuration republish_jitter(
      std::uint32_t node, std::uint32_t slot, std::uint32_t cycle) const noexcept;

  /// Exponential inter-fetch gap before node `node`'s fetch number
  /// `fetch` (>= 0 ms; 0 when the category's rate is zero — consumers
  /// must check `fetch_rate` first).
  [[nodiscard]] common::SimDuration fetch_gap(std::uint32_t node,
                                              std::uint32_t fetch,
                                              Category category) const;

  /// The keyspace index node `node` requests in fetch number `fetch`.
  /// Popularity-biased: low key indices are fetched quadratically more
  /// often, the skew real content catalogues show.
  [[nodiscard]] std::uint32_t fetch_key(std::uint32_t node, std::uint32_t fetch,
                                        std::uint32_t keyspace) const noexcept;

  /// Whether fetch number `fetch` is actually served once a provider was
  /// found (stable hash vs `spec().fetch_success`).
  [[nodiscard]] bool fetch_served(std::uint32_t node,
                                  std::uint32_t fetch) const noexcept;

  /// Per-category effective rates (override or top-level).
  [[nodiscard]] double publish_rate(Category category) const noexcept;
  [[nodiscard]] double fetch_rate(Category category) const noexcept;

  /// The deterministic CID of keyspace index `key` — stable across runs
  /// for one seed, so provider records and Bitswap blocks line up.
  [[nodiscard]] p2p::PeerId key_cid(std::uint32_t key) const noexcept;

 private:
  [[nodiscard]] common::Rng draw_rng(std::uint64_t salt, std::uint32_t node,
                                     std::uint32_t index) const noexcept;

  ContentSpec spec_;
  std::uint64_t seed_ = 0;
  /// Category -> override slot (or -1), compiled from `spec_.categories`.
  std::array<std::int32_t, kCategoryCount> override_slot_{};
};

}  // namespace ipfs::scenario
