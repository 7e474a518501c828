// Campaign engine: runs one measurement period (Table I) of the synthetic
// network against the vantage nodes and streams their observations.
//
// This is the "campaign fidelity" mode of DESIGN.md §2: remote peers are
// population processes that interact *only* with the vantage swarms (whose
// connection managers, peerstores and recorders are the real
// implementations from p2p/ and measure/).  Remote-to-remote traffic is not
// simulated — the paper's dataset never contains it either.
//
// Engines are obtained through the config-validating factory
// `CampaignEngine::create` and publish through a `measure::MeasurementSink`
// (crawl snapshots as they happen, per-vantage datasets at the end).
// Callers that want the whole run in memory pass a
// `measure::CollectingSink`.
//
// Configs come from C++ directly or from a declarative JSON scenario:
// `scenario::ScenarioSpec::to_campaign_config()` (scenario_spec.hpp) is
// how the `ipfs_sim` CLI assembles engines from `scenarios/*.json` files,
// and `runtime::ParallelTrialRunner` fans seed sweeps of one config across
// cores.
#pragma once

#include <expected>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "measure/recorder.hpp"
#include "measure/sink.hpp"
#include "net/conditions.hpp"
#include "scenario/churn.hpp"
#include "scenario/content.hpp"
#include "scenario/period.hpp"
#include "scenario/phases.hpp"
#include "scenario/population.hpp"
#include "sim/simulation.hpp"

namespace ipfs::scenario {

/// Deterministic intra-trial sharding of the remote population
/// (DESIGN.md §13).  The engine's event loop stays single-threaded and
/// structurally identical to the unsharded engine, and churn and the
/// crawl run the same sequential code either way.  What shards is the
/// pure whole-population sample tallies (ground-truth online and record
/// counts), summed over contiguous population slices on a fork-join
/// `runtime::ShardPool` in canonical ascending shard order.  The export
/// is byte-identical to the unsharded run at ANY shard count and ANY
/// worker count (the sequential engine is the oracle; enforced by
/// `ctest -L shard`).
struct ShardPlan {
  /// Contiguous population slices advanced per fan-out.  Must be >= 1;
  /// 1 still engages the sharded code path (useful for tests).
  unsigned shards = 1;

  /// Worker threads driving the shard fan-outs.  0 resolves through the
  /// process-wide `runtime::WorkerBudget`, which nested
  /// `ParallelTrialRunner` sweeps share so trials x shards never exceeds
  /// hardware concurrency; explicit values are honoured as given.
  /// Clamped to `shards` either way.
  unsigned workers = 0;
};

/// Campaign configuration.
struct CampaignConfig {
  PeriodSpec period = PeriodSpec::P4();
  PopulationSpec population = PopulationSpec::paper_scale();
  std::uint64_t seed = 20211203;

  /// Probability that a given remote peer's DHT position brings it into
  /// contact with a given vantage identity at all (§III-C's horizon).
  double vantage_visibility = 0.93;

  bool enable_crawler = true;
  common::SimDuration crawl_interval = 8 * common::kHour;

  /// §IV-B dynamics: version changes and kad/autonat flapping.
  bool enable_metadata_dynamics = true;

  /// Outbound dial rate of a DHT-client vantage (P3's behaviour), per hour.
  double client_dials_per_hour = 1980.0;

  /// Optional network-condition model (net/conditions.hpp, DESIGN.md §9):
  /// zones, dial-failure/loss, NAT reachability classes and scheduled
  /// disturbances.  Engaged, it gates remote->vantage contact attempts,
  /// vantage->remote dials and active-crawl reachability through pure
  /// hash verdicts seeded from `seed`.  nullopt leaves the engine's
  /// behaviour bit-for-bit identical to the pre-conditions code path
  /// (enforced by tests/integration/golden_determinism_test.cpp).
  std::optional<net::ConditionSpec> conditions;

  /// Optional session-level churn model (scenario/churn.hpp, DESIGN.md
  /// §10): per-category session/intersession distributions plus diurnal
  /// modulation, driving first-class join/leave events for *every*
  /// category.  Engaged, it replaces the static per-category session
  /// machinery — peers genuinely arrive and depart on the simulation
  /// clock, and the engine publishes `measure::PopulationSample`s (the
  /// observed-vs-true baseline).  nullopt leaves the engine's behaviour
  /// bit-for-bit identical to the pre-churn code path (hash-pinned by
  /// tests/integration/golden_determinism_test.cpp).
  std::optional<ChurnSpec> churn;

  /// Optional content-routing workload (scenario/content.hpp, DESIGN.md
  /// §11): publish → provide → republish → expire chains driving
  /// `dht::RecordStore`s at the server vantages, plus live Bitswap
  /// want/block fetch traffic over a dedicated message-level network.
  /// Engaged, the engine publishes `measure::ProvideSample` /
  /// `FetchSample` / `ContentSample` streams (records-at-vantage vs
  /// ground truth).  nullopt leaves the engine's behaviour bit-for-bit
  /// identical to the pre-content code path (hash-pinned by
  /// tests/integration/golden_determinism_test.cpp).
  std::optional<ContentSpec> content;

  /// Optional time-varying workload program (scenario/phases.hpp,
  /// DESIGN.md §14): piecewise rate multipliers — ramps, bursts, flash
  /// crowds — folded into the engine's per-draw sampling sites.  Every
  /// modulated draw stays a pure function of (node, index, phase, seed),
  /// so sweeps and sharded runs remain byte-identical at any worker or
  /// shard count.  nullopt leaves every rate constant: behaviour is
  /// bit-for-bit identical to the pre-phases code path (hash-pinned by
  /// tests/integration/golden_determinism_test.cpp).
  std::optional<PhaseProgramSpec> phases;

  /// Optional intra-trial sharding (DESIGN.md §13).  nullopt runs the
  /// classic sequential engine; engaged, the export stays byte-identical
  /// at any `shards`/`workers` (hash-pinned by `ctest -L shard`), so this
  /// is purely an execution knob — scenario JSON never carries it, the
  /// `ipfs_sim --shards` flag and `runtime::ShardedCampaignRunner` do.
  std::optional<ShardPlan> sharding;
};

/// Runs one campaign.  Use a fresh engine per run.
///
/// Engines are thread-confined (one virtual clock, one RNG tree — no
/// internal locking) but fully independent of each other: running
/// distinct engines on distinct threads is safe and deterministic, which
/// is how `runtime::ParallelTrialRunner` executes sweeps (DESIGN.md §7).
class CampaignEngine {
 public:
  /// Why `config` cannot run, or nullopt when it is valid.
  [[nodiscard]] static std::optional<std::string> validate(
      const CampaignConfig& config);

  /// Config-validating factory — the only way to obtain an engine.
  [[nodiscard]] static std::expected<CampaignEngine, std::string> create(
      CampaignConfig config);

  CampaignEngine(CampaignEngine&&) noexcept;
  CampaignEngine& operator=(CampaignEngine&&) noexcept;
  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;
  ~CampaignEngine();

  /// Execute the full period, streaming observations into `sink`.
  void run(measure::MeasurementSink& sink);

  /// The simulation clock (exposed for tests that step manually).
  [[nodiscard]] sim::Simulation& simulation();

 private:
  explicit CampaignEngine(CampaignConfig config);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ipfs::scenario
