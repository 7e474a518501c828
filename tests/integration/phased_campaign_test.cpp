// Phased-campaign golden pins and execution-knob invariance
// (DESIGN.md §14).
//
// 1. The flash-crowd builtin's export is hash-pinned at the CI smoke
//    scale and must stay byte-identical across `ParallelTrialRunner`
//    worker counts {1, 2, 4} and `ShardPlan` shard counts {1, 4} — the
//    phase lookups are pure functions of (node, index, phase, seed), so
//    no execution knob may move a byte.
// 2. Every phased builtin must actually change the output against its
//    phases-stripped twin (no dead modulation paths), and the export must
//    carry the per-phase breakdown document.
// 3. Shrinking `period.duration` under a schedule (the `ipfs_sim run
//    --duration` path) must fail validation with a field-path error
//    instead of silently truncating — the bug this PR fixes.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "measure/sink.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"
#include "testing/campaign.hpp"

namespace ipfs::scenario {
namespace {

using testing::run_builtin;
using testing::run_sharded_json;
using testing::run_to_json;

constexpr double kScale = 0.002;  // the CI smoke scale; minutes -> seconds

/// FNV-1a (common::hash64) of the flash-crowd export at scale 0.002,
/// default seed — vantage dataset, sample documents, and the trailing
/// phase_breakdown document — recorded when `scenario::PhaseProgram`
/// landed.  Every phase-modulated draw is pure per (node, index, phase,
/// seed), so this must never move — across worker counts, shard counts,
/// or rebuilds.
constexpr std::uint64_t kFlashCrowdPin = 0x1aaf008db917b14cULL;

TEST(PhasedCampaign, FlashCrowdExportMatchesPinnedHash) {
  const std::string exported = run_builtin("flash-crowd", kScale);
  ASSERT_FALSE(exported.empty());
  EXPECT_EQ(common::hash64(exported), kFlashCrowdPin)
      << "flash-crowd: phased campaign export drifted from its pin";
}

TEST(PhasedCampaign, PhasedScenariosActuallyChangeOutput) {
  // Sanity for the whole subsystem: each phased builtin with its section
  // stripped must differ from the real thing (otherwise the modulation
  // hooks are dead code).
  for (const char* name : {"flash-crowd", "load-ramp", "burst-storm"}) {
    ScenarioSpec spec = *ScenarioSpec::builtin(name);
    spec.population.scale = kScale;
    ScenarioSpec stripped = spec;
    stripped.phases.reset();
    EXPECT_NE(run_to_json(spec.to_campaign_config()),
              run_to_json(stripped.to_campaign_config()))
        << name;
  }
}

TEST(PhasedCampaign, ExportCarriesThePhaseBreakdownDocument) {
  const std::string exported = run_builtin("flash-crowd", kScale);
  EXPECT_NE(exported.find("\"phase_breakdown\""), std::string::npos);
  EXPECT_NE(exported.find("\"flash\""), std::string::npos);
  // ...and a phase-free run must not grow the document.
  EXPECT_EQ(run_builtin("p4", kScale).find("\"phase_breakdown\""),
            std::string::npos);
}

TEST(PhasedCampaign, SweepByteIdenticalAcrossWorkerCounts) {
  for (const char* name : {"flash-crowd", "burst-storm"}) {
    ScenarioSpec spec = *ScenarioSpec::builtin(name);
    spec.population.scale = kScale;
    spec.campaign.trials = 3;
    testing::expect_sweep_worker_invariant(spec);
  }
}

TEST(PhasedCampaign, ShardedRunsReproduceThePin) {
  // Intra-trial sharding is an execution knob, not a golden lineage: with
  // a ShardPlan engaged (any shard x worker point) the phased engine must
  // land on the sequential pin above.
  ScenarioSpec spec = *ScenarioSpec::builtin("flash-crowd");
  spec.population.scale = kScale;
  for (const unsigned shards : {1u, 4u}) {
    for (const unsigned workers : {1u, 2u, 4u}) {
      EXPECT_EQ(common::hash64(run_sharded_json(spec.to_campaign_config(),
                                                shards, workers)),
                kFlashCrowdPin)
          << "shards=" << shards << " workers=" << workers;
    }
  }
}

TEST(PhasedCampaign, LoadRampShardedMatchesSequentialBytes) {
  // The ramp moves every rate continuously through the run — the sharded
  // bytes must still equal the sequential run's exactly.
  ScenarioSpec spec = *ScenarioSpec::builtin("load-ramp");
  spec.population.scale = kScale;
  const std::string sequential = run_to_json(spec.to_campaign_config());
  ASSERT_FALSE(sequential.empty());
  EXPECT_TRUE(testing::same_bytes(
      sequential, run_sharded_json(spec.to_campaign_config(), 4, 2)));
}

// ---- the --duration truncation fix ------------------------------------------

TEST(PhasedCampaign, ShrunkDurationFailsValidationWithFieldPath) {
  // `ipfs_sim run --duration` shortens `period.duration` after parsing and
  // re-validates; before this PR the truncated schedule ran silently.  The
  // horizon rules must name the field that no longer fits.
  ScenarioSpec churned = *ScenarioSpec::builtin("churn-baseline");
  churned.period.duration = churned.churn->sample_interval - 1;
  const auto churn_error = ScenarioSpec::validate(churned);
  ASSERT_TRUE(churn_error.has_value());
  EXPECT_NE(churn_error->find("churn.sample_interval_ms: exceeds "
                              "period.duration_ms"),
            std::string::npos)
      << *churn_error;

  ScenarioSpec content = *ScenarioSpec::builtin("content-baseline");
  content.period.duration = content.content->sample_interval - 1;
  const auto content_error = ScenarioSpec::validate(content);
  ASSERT_TRUE(content_error.has_value());
  EXPECT_NE(content_error->find("content.sample_interval_ms: exceeds "
                                "period.duration_ms"),
            std::string::npos)
      << *content_error;

  // Phased programs: a duration under the total hold cuts trailing phases.
  ScenarioSpec phased = *ScenarioSpec::builtin("flash-crowd");
  phased.period.duration = phased.phases->total_duration() - 1;
  const auto phased_error = ScenarioSpec::validate(phased);
  ASSERT_TRUE(phased_error.has_value());
  EXPECT_NE(phased_error->find("phases.program: total hold exceeds "
                               "period.duration_ms"),
            std::string::npos)
      << *phased_error;
}

}  // namespace
}  // namespace ipfs::scenario
