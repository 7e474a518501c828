// Shared campaign test helpers.
//
// The scenario/integration suites all need the same moves: build a
// small-scale `CampaignConfig`, run it through the validating factory
// (failing the test on a rejected config), capture a run's JSON export,
// and compare two exports byte for byte with a readable failure.
// Keeping them here stops each suite from re-rolling its own copy.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
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
/// The shard-invariance suites compare these bytes against the plain
/// sequential `run_to_json`.
inline std::string run_sharded_json(scenario::CampaignConfig config,
                                    unsigned shards, unsigned workers) {
  config.sharding = scenario::ShardPlan{.shards = shards, .workers = workers};
  return run_to_json(config);
}

/// Byte equality of two exports that, on failure, names the first
/// differing byte offset, its 1-based line and ~60 bytes of context from
/// each side instead of printing both (tens of KB) documents.  A length
/// difference fails at the end of the shorter input.
inline ::testing::AssertionResult same_bytes(std::string_view expected,
                                             std::string_view actual) {
  if (expected == actual) return ::testing::AssertionSuccess();
  const auto mismatch =
      std::mismatch(expected.begin(), expected.end(), actual.begin(), actual.end());
  const auto offset =
      static_cast<std::size_t>(mismatch.first - expected.begin());
  const auto line =
      1 + std::count(expected.begin(), mismatch.first, '\n');
  constexpr std::size_t kBefore = 20;
  constexpr std::size_t kWindow = 60;
  const std::size_t from = offset > kBefore ? offset - kBefore : 0;
  const auto context = [&](std::string_view bytes) {
    std::string shown;
    for (const char c : bytes.substr(std::min(from, bytes.size()), kWindow)) {
      if (c == '\n') {
        shown += "\\n";
      } else if (c == '\t') {
        shown += "\\t";
      } else {
        shown += c;
      }
    }
    return "\"" + shown + "\"";
  };
  return ::testing::AssertionFailure()
         << "exports differ at byte " << offset << " (line " << line
         << "); lengths " << expected.size() << " vs " << actual.size()
         << "\n  expected[" << from << "..]: " << context(expected)
         << "\n  actual  [" << from << "..]: " << context(actual);
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
