// Shared campaign test helpers.
//
// The scenario/integration suites all need the same three moves: build a
// small-scale `CampaignConfig`, run it through the validating factory
// (failing the test on a rejected config), and capture a run's JSON
// export for byte-level comparisons.  Keeping them here stops each suite
// from re-rolling its own copy.
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "measure/sink.hpp"
#include "runtime/parallel.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"

namespace ipfs::testing {

/// A scaled-down config for `period` (tests run in milliseconds, not
/// minutes).
inline scenario::CampaignConfig small_config(scenario::PeriodSpec period,
                                             double scale = 0.02,
                                             std::uint64_t seed = 7) {
  scenario::CampaignConfig config;
  config.period = std::move(period);
  config.population = scenario::PopulationSpec::test_scale(scale);
  config.seed = seed;
  return config;
}

/// Factory + run into a `measure::CollectingSink` in one step; fails the
/// test on an invalid config.
inline measure::CollectingSink run_campaign(scenario::CampaignConfig config) {
  measure::CollectingSink sink;
  auto engine = scenario::CampaignEngine::create(std::move(config));
  if (!engine) {
    ADD_FAILURE() << "invalid campaign config: " << engine.error();
    return sink;
  }
  engine->run(sink);
  return sink;
}

/// The run's vantage dataset; fails the test (and yields an empty
/// dataset) when none was published.
inline const measure::Dataset& vantage(const measure::CollectingSink& run) {
  static const measure::Dataset kNone;
  const measure::Dataset* dataset = run.find(measure::DatasetRole::kVantage);
  if (dataset == nullptr) {
    ADD_FAILURE() << "the run published no vantage dataset";
    return kNone;
  }
  return *dataset;
}

/// Run `config` into a `measure::JsonExportSink` and return the bytes.
inline std::string run_to_json(const scenario::CampaignConfig& config) {
  auto engine = scenario::CampaignEngine::create(config);
  EXPECT_TRUE(engine.has_value()) << engine.error();
  if (!engine) return {};
  std::ostringstream out;
  measure::JsonExportSink sink(out);
  engine->run(sink);
  return out.str();
}

/// `run_to_json` over a builtin scenario at the given population scale.
inline std::string run_builtin(const char* name, double scale) {
  scenario::ScenarioSpec spec = *scenario::ScenarioSpec::builtin(name);
  spec.population.scale = scale;
  return run_to_json(spec.to_campaign_config());
}

/// `run_to_json` with an intra-trial `ShardPlan` injected (DESIGN.md §13).
/// `slab == 0` keeps the plan's default slab.  The shard-invariance suites
/// compare these bytes against the plain sequential `run_to_json`.
inline std::string run_sharded_json(scenario::CampaignConfig config,
                                    unsigned shards, unsigned workers,
                                    common::SimDuration slab = 0) {
  scenario::ShardPlan plan;
  plan.shards = shards;
  plan.workers = workers;
  if (slab > 0) plan.slab = slab;
  config.sharding = plan;
  return run_to_json(config);
}

/// Run the spec's seed sweep through `ParallelTrialRunner` with the given
/// worker count and return the merged JSON-export bytes — the probe the
/// worker-count-invariance tests compare across {1, 2, 4}.
inline std::string run_sweep_bytes(const scenario::ScenarioSpec& spec,
                                   std::uint32_t workers) {
  std::ostringstream out;
  measure::JsonExportSink sink(out);
  runtime::ParallelTrialRunner runner({.workers = workers});
  auto outcome = runner.run(
      runtime::ParallelTrialRunner::seed_sweep(spec.to_campaign_config(),
                                               spec.trial_seeds()),
      sink);
  EXPECT_TRUE(outcome.has_value()) << outcome.error();
  return out.str();
}

/// Assert the sweep is byte-identical at 1, 2 and 4 workers.
inline void expect_sweep_worker_invariant(const scenario::ScenarioSpec& spec) {
  const std::string baseline = run_sweep_bytes(spec, 1);
  ASSERT_FALSE(baseline.empty());
  for (const std::uint32_t workers : {2u, 4u}) {
    EXPECT_EQ(run_sweep_bytes(spec, workers), baseline)
        << "workers=" << workers;
  }
}

}  // namespace ipfs::testing
