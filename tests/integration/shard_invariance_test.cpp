// Shard-invariance goldens (DESIGN.md §13).
//
// The contract under test: an intra-trial `scenario::ShardPlan` is purely
// an execution knob.  For every scenario family the engine supports —
// static Table I periods, churned lifecycles, content workloads, and the
// combined churn+content load — the JSON export must be byte-identical to
// the sequential engine (the oracle) at ANY shard count and ANY worker
// count.  The grid here is shards {1, 2, 4, 8} x workers {1, 2, 4}; the
// legacy hash pins from golden_determinism_test.cpp are additionally
// re-asserted *with sharding engaged*, so the sharded path can never fork
// the golden lineage.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "measure/sink.hpp"
#include "runtime/parallel.hpp"
#include "runtime/sharded.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"
#include "testing/campaign.hpp"

namespace ipfs::scenario {
namespace {

using testing::run_sharded_json;
using testing::run_to_json;

constexpr double kScale = 0.002;  // the CI smoke scale; minutes -> seconds

constexpr unsigned kShardGrid[] = {1, 2, 4, 8};
constexpr unsigned kWorkerGrid[] = {1, 2, 4};

CampaignConfig builtin_config(const char* name) {
  ScenarioSpec spec = *ScenarioSpec::builtin(name);
  spec.population.scale = kScale;
  return spec.to_campaign_config();
}

/// content-baseline + churn-baseline's churn section: every event source
/// live at once (same construction as golden_determinism_test.cpp).
CampaignConfig combined_config() {
  ScenarioSpec spec = *ScenarioSpec::builtin("content-baseline");
  spec.churn = ScenarioSpec::builtin("churn-baseline")->churn;
  spec.population.scale = kScale;
  return spec.to_campaign_config();
}

/// Run the full shard x worker grid against the sequential oracle.
void expect_grid_invariant(const CampaignConfig& config, const char* label) {
  const std::string oracle = run_to_json(config);
  ASSERT_FALSE(oracle.empty()) << label;
  for (const unsigned shards : kShardGrid) {
    for (const unsigned workers : kWorkerGrid) {
      EXPECT_TRUE(testing::same_bytes(
          oracle, run_sharded_json(config, shards, workers)))
          << label << ": shards=" << shards << " workers=" << workers;
    }
  }
}

TEST(ShardInvariance, PeriodExportsMatchSequentialOracle) {
  for (const char* period : {"p0", "p1", "p2", "p3", "p4"}) {
    expect_grid_invariant(builtin_config(period), period);
  }
}

TEST(ShardInvariance, ChurnedExportMatchesSequentialOracle) {
  expect_grid_invariant(builtin_config("churn-baseline"), "churn-baseline");
}

TEST(ShardInvariance, ContentExportMatchesSequentialOracle) {
  expect_grid_invariant(builtin_config("content-baseline"), "content-baseline");
}

TEST(ShardInvariance, CombinedChurnContentExportMatchesSequentialOracle) {
  expect_grid_invariant(combined_config(), "combined churn+content");
}

TEST(ShardInvariance, ConditionedExportMatchesSequentialOracle) {
  // The crawler's reachability verdict only splits when a condition
  // model gates it; flaky-links exercises that branch.
  expect_grid_invariant(builtin_config("flaky-links"), "flaky-links");
}

TEST(ShardInvariance, ShardedRunsReproduceLegacyGoldenPins) {
  // The exact constants pinned by golden_determinism_test.cpp, re-asserted
  // with sharding engaged: the sharded engine does not get its own golden
  // lineage, it must hit the sequential one.
  const struct {
    const char* name;
    std::uint64_t hash;
  } goldens[] = {
      {"p0", 0x78a4ac5991ecde93ULL},
      {"p1", 0x6d91f304d5fac5e6ULL},
      {"p2", 0x6d91f304d5fac5e6ULL},
      {"p3", 0x2cebfb16114cf92fULL},
      {"p4", 0xcf1669de66317e98ULL},
      {"churn-baseline", 0x99fa022fd1bc8a95ULL},
      {"content-baseline", 0xf4be5116cf725575ULL},
  };
  for (const auto& golden : goldens) {
    const std::string exported =
        run_sharded_json(builtin_config(golden.name), 4, 2);
    ASSERT_FALSE(exported.empty()) << golden.name;
    EXPECT_EQ(common::hash64(exported), golden.hash)
        << golden.name << ": sharded export drifted from the sequential pin";
  }
  EXPECT_EQ(common::hash64(run_sharded_json(combined_config(), 4, 2)),
            0x2a17c5a9a02a54a6ULL)
      << "combined churn+content: sharded export drifted from its pin";
}

TEST(ShardInvariance, ShardedSweepMatchesSequentialSweep) {
  // Nesting: a ParallelTrialRunner seed sweep whose cells each carry a
  // ShardPlan.  The merged stream must equal the plain sequential sweep of
  // unsharded cells — trial-level and shard-level parallelism compose
  // without moving a byte.
  ScenarioSpec spec = *ScenarioSpec::builtin("churn-baseline");
  spec.population.scale = kScale;
  spec.campaign.trials = 3;
  const std::string baseline = testing::run_sweep_bytes(spec, 1);
  ASSERT_FALSE(baseline.empty());

  CampaignConfig sharded_cell = spec.to_campaign_config();
  sharded_cell.sharding = ShardPlan{.shards = 4, .workers = 2};
  std::ostringstream out;
  measure::JsonExportSink sink(out);
  runtime::ParallelTrialRunner runner({.workers = 2});
  auto outcome = runner.run(
      runtime::ParallelTrialRunner::seed_sweep(sharded_cell,
                                               spec.trial_seeds()),
      sink);
  ASSERT_TRUE(outcome.has_value()) << outcome.error();
  EXPECT_TRUE(testing::same_bytes(baseline, out.str()));
}

TEST(ShardInvariance, ShardedRunnerFacadeMatchesOracle) {
  // The runtime::ShardedCampaignRunner facade (what `ipfs_sim --shards`
  // drives) must land on the same bytes as hand-injecting the plan.
  const CampaignConfig config = builtin_config("churn-baseline");
  const std::string oracle = run_to_json(config);
  ASSERT_FALSE(oracle.empty());

  runtime::ShardedCampaignRunner runner({.shards = 3, .workers = 2});
  std::ostringstream out;
  measure::JsonExportSink sink(out);
  auto outcome = runner.run(config, sink);
  ASSERT_TRUE(outcome.has_value()) << outcome.error();
  EXPECT_TRUE(testing::same_bytes(oracle, out.str()));
}

}  // namespace
}  // namespace ipfs::scenario
