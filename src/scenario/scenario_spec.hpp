// Declarative scenario specifications (DESIGN.md §8).
//
// A `ScenarioSpec` is the JSON-serialisable description of one measurement
// campaign: the period knobs of `PeriodSpec`, the population shape of
// `PopulationSpec` (counts, scale, per-category behaviour overrides), the
// campaign settings of `CampaignConfig` plus sweep controls (trials,
// workers), and the output selection of `measure::JsonExportSink`.  The
// builtin specs — the paper's Table I periods among them — are the
// editable `scenarios/*.json` files, compiled in by the build;
// `PeriodSpec::P0()..P4()` are thin wrappers over the builtins, so compiled
// presets and checked-in JSON cannot drift apart.
//
// Parsing is strict: `from_json` rejects unknown or repeated fields,
// out-of-range values and malformed documents with a field-path error
// ("period.go_ipfs: low_water must be >= 0"), and `to_json` round-trips
// exactly — `from_json(to_json(spec)) == spec` for every representable
// spec.
//
// The `ipfs_sim` CLI (tools/ipfs_sim.cpp) is the scenario driver:
//
//   ipfs_sim run scenarios/p4.json --out results.json --workers 4
//   ipfs_sim validate scenarios/*.json
//   ipfs_sim list
//
// See docs/SCENARIOS.md for the field-by-field schema and a cookbook of
// shipped workloads.
#pragma once

#include <expected>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "measure/sink.hpp"
#include "net/conditions.hpp"
#include "scenario/campaign.hpp"
#include "scenario/churn.hpp"
#include "scenario/content.hpp"
#include "scenario/period.hpp"
#include "scenario/phases.hpp"
#include "scenario/population_spec.hpp"

namespace ipfs::scenario {

/// Campaign-level settings: everything `CampaignConfig` carries beyond the
/// period and population, plus the sweep controls consumed by
/// `runtime::ParallelTrialRunner`.
struct CampaignSettings {
  std::uint64_t seed = 20211203;
  /// Trials run seeds `seed, seed+1, …, seed+trials-1` (a seed sweep).
  std::uint32_t trials = 1;
  /// Worker threads for multi-trial runs; 0 = hardware concurrency.
  std::uint32_t workers = 0;

  double vantage_visibility = 0.93;
  bool enable_crawler = true;
  common::SimDuration crawl_interval = 8 * common::kHour;
  bool enable_metadata_dynamics = true;
  double client_dials_per_hour = 1980.0;

  [[nodiscard]] bool operator==(const CampaignSettings&) const = default;
};

/// Where campaign observations go: options for the JSON export sink.
struct OutputSettings {
  bool pretty = true;
  bool include_connections = false;
  /// When set, only datasets with this role are exported.
  std::optional<measure::DatasetRole> role_filter;

  [[nodiscard]] measure::JsonExportSink::Options export_options() const {
    measure::JsonExportSink::Options options;
    options.include_connections = include_connections;
    options.pretty = pretty;
    options.role_filter = role_filter;
    return options;
  }

  [[nodiscard]] bool operator==(const OutputSettings&) const = default;
};

/// One fully declarative scenario.
struct ScenarioSpec {
  std::string name;         ///< machine name ("p4", "nat-heavy", …)
  std::string description;  ///< one-line human summary

  PeriodSpec period;
  PopulationSpec population;
  /// The optional `"network"` section: a declarative condition model
  /// (net/conditions.hpp) — zones, loss, NAT classes, disturbances.  When
  /// absent the campaign runs on the legacy flat fabric, byte-for-byte
  /// (the section is also omitted from `to_json`, so pre-conditions
  /// scenario files round-trip unchanged).
  std::optional<net::ConditionSpec> network;
  /// The optional `"churn"` section: a session-level lifecycle model
  /// (scenario/churn.hpp) — per-category session/intersession
  /// distributions and diurnal modulation.  Absent, the static session
  /// machinery runs unchanged (byte-for-byte; omitted from `to_json`).
  std::optional<ChurnSpec> churn;
  /// The optional `"content"` section: a content-routing workload
  /// (scenario/content.hpp) — publish/provide/republish chains over a
  /// keyspace plus Bitswap fetch traffic.  Absent, the engine runs the
  /// pre-content code path (byte-for-byte; omitted from `to_json`).
  std::optional<ContentSpec> content;
  /// The optional `"phases"` section: a time-varying workload program
  /// (scenario/phases.hpp) — ramps, bursts, and flash crowds over the
  /// other sections' rates.  Absent, every rate stays constant for the
  /// run (byte-for-byte legacy; omitted from `to_json`).
  std::optional<PhaseProgramSpec> phases;
  CampaignSettings campaign;
  OutputSettings output;

  [[nodiscard]] bool operator==(const ScenarioSpec&) const = default;

  // ---- (de)serialisation ----------------------------------------------------

  /// Parse and validate a scenario document.  On failure the error names
  /// the offending field path and rule.
  [[nodiscard]] static std::expected<ScenarioSpec, std::string> from_json(
      std::string_view text);

  /// `from_json` over a file's contents; IO errors mention the path.
  [[nodiscard]] static std::expected<ScenarioSpec, std::string> from_file(
      const std::string& path);

  /// Serialise the complete spec (every field explicit, so the output is
  /// self-documenting and round-trips exactly).
  void to_json(common::JsonWriter& writer) const;

  /// Pretty-printed document with trailing newline — the byte-exact format
  /// of the checked-in `scenarios/*.json` files.
  [[nodiscard]] std::string to_json_string() const;

  // ---- validation -----------------------------------------------------------

  /// Why this spec cannot run, or nullopt when valid.  Includes every
  /// `CampaignEngine::validate` rule (population rules first) plus
  /// spec-level rules (non-empty name, trials >= 1, schedules that fit
  /// the horizon).
  [[nodiscard]] static std::optional<std::string> validate(
      const ScenarioSpec& spec);

  // ---- execution ------------------------------------------------------------

  /// The engine configuration for trial 0 (seed = `campaign.seed`).
  [[nodiscard]] CampaignConfig to_campaign_config() const;

  /// The seed of each trial of the sweep, in trial order.
  [[nodiscard]] std::vector<std::uint64_t> trial_seeds() const;

  // ---- builtins -------------------------------------------------------------

  /// All builtin scenarios, one per scenarios/*.json file in file-name
  /// order: the Table I periods p0..p4, the 14-day Fig. 6 run, and the
  /// extra workloads.
  [[nodiscard]] static const std::vector<ScenarioSpec>& builtins();

  /// Builtin by name, nullopt when unknown.
  [[nodiscard]] static std::optional<ScenarioSpec> builtin(std::string_view name);
};

/// Writes `dist` as a scenario file's distribution object: `"kind"`, then
/// that kind's parameters (the calibration report uses the same form).
void write_distribution(common::JsonWriter& writer, const SessionDistribution& dist);

}  // namespace ipfs::scenario
