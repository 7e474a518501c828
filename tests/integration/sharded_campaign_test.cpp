// Canonical-merge property tests for intra-trial sharding (DESIGN.md §13).
//
// Where shard_invariance_test.cpp pins the named scenario families on a
// fixed grid, this suite attacks the merge machinery itself:
//
//   * randomized (seed, slab-length, shard-count) campaigns against the
//     unsharded oracle — the slab length must never leak into the bytes;
//   * adversarial slab boundaries — constant-length sessions (lognormal
//     sigma = 0) tuned so every churn transition lands *exactly* on a slab
//     edge, the `at == horizon` case the lazy chain refill must absorb;
//   * republish cycles straddling slab edges;
//   * plan validation and the ShardedCampaignRunner facade's error paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>

#include "measure/sink.hpp"
#include "runtime/sharded.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"
#include "testing/campaign.hpp"

namespace ipfs::scenario {
namespace {

using common::kHour;
using common::kMinute;
using testing::run_sharded_json;
using testing::run_to_json;

constexpr double kScale = 0.002;

CampaignConfig churned_content_config(std::uint64_t seed) {
  ScenarioSpec spec = *ScenarioSpec::builtin("content-baseline");
  spec.churn = ScenarioSpec::builtin("churn-baseline")->churn;
  spec.population.scale = kScale;
  CampaignConfig config = spec.to_campaign_config();
  config.seed = seed;
  return config;
}

TEST(ShardedCampaign, RandomizedSeedSlabShardTriplesMatchOracle) {
  // Deterministically-seeded fuzz over the three knobs that could plausibly
  // leak into the merge: the campaign seed (different event tapes), the
  // slab length (different refill cadences), the shard count (different
  // slice boundaries).  Each case compares full export bytes against the
  // unsharded oracle for the same seed.
  std::mt19937_64 fuzz(0x5eed5ab5ULL);
  std::uniform_int_distribution<std::uint64_t> seed_draw(1, 1u << 20);
  std::uniform_int_distribution<int> slab_minutes(1, 16 * 60);
  std::uniform_int_distribution<unsigned> shard_draw(1, 9);
  std::uniform_int_distribution<unsigned> worker_draw(1, 4);

  for (int round = 0; round < 6; ++round) {
    const std::uint64_t seed = seed_draw(fuzz);
    const common::SimDuration slab = slab_minutes(fuzz) * kMinute;
    const unsigned shards = shard_draw(fuzz);
    const unsigned workers = worker_draw(fuzz);

    const CampaignConfig config = churned_content_config(seed);
    const std::string oracle = run_to_json(config);
    ASSERT_FALSE(oracle.empty());
    EXPECT_EQ(run_sharded_json(config, shards, workers, slab), oracle)
        << "round=" << round << " seed=" << seed << " slab=" << slab
        << " shards=" << shards << " workers=" << workers;
  }
}

/// A churn spec with *constant* session and gap lengths (lognormal with
/// sigma = 0 collapses to its median) and everyone offline at t = 0, so
/// every peer's lifecycle is the exact same square wave: first join at
/// `gap`, transitions every `session`/`gap` thereafter.
ChurnSpec square_wave_churn(double session_ms, double gap_ms) {
  ChurnSpec churn;
  churn.session = SessionDistribution::lognormal(session_ms, 0.0);
  churn.gap = SessionDistribution::lognormal(gap_ms, 0.0);
  churn.categories.clear();
  churn.diurnal.reset();
  churn.initial_online = 0.0;
  return churn;
}

TEST(ShardedCampaign, TransitionsExactlyOnSlabEdgesMatchOracle) {
  // session = gap = 30 min, everyone offline at t = 0: the whole
  // population transitions in lockstep at exactly 30 min, 60 min, 90 min…
  // With slab = 30 min every one of those instants IS a slab horizon —
  // the precomputed chains stop strictly before the edge, so every single
  // pop exercises the lazy `extend(now + slab)` refill path.
  ScenarioSpec spec = *ScenarioSpec::builtin("churn-baseline");
  spec.population.scale = kScale;
  CampaignConfig config = spec.to_campaign_config();
  config.churn = square_wave_churn(30.0 * 60'000.0, 30.0 * 60'000.0);

  const std::string oracle = run_to_json(config);
  ASSERT_FALSE(oracle.empty());
  for (const unsigned shards : {1u, 3u, 8u}) {
    EXPECT_EQ(run_sharded_json(config, shards, 2, 30 * kMinute), oracle)
        << "shards=" << shards;
  }
}

TEST(ShardedCampaign, SessionEndOnSlabEdgeWithOnlineStartMatchesOracle) {
  // The complementary alignment: peers start *online* (first transition
  // inside the first 10 minutes), sessions are a constant 50 min, and the
  // slab is 1 h — session ends now land mid-slab and just-past-edge in
  // mixed phase, while rejoins drift across horizons.  Catches any
  // off-by-one in the `at < horizon` buffering cut.
  ScenarioSpec spec = *ScenarioSpec::builtin("churn-baseline");
  spec.population.scale = kScale;
  CampaignConfig config = spec.to_campaign_config();
  config.churn = square_wave_churn(50.0 * 60'000.0, 70.0 * 60'000.0);
  config.churn->initial_online = 1.0;

  const std::string oracle = run_to_json(config);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(run_sharded_json(config, 4, 2, kHour), oracle);
}

TEST(ShardedCampaign, RepublishCycleStraddlingSlabMatchesOracle) {
  // content-baseline republishes on a 12 h cadence; a 7 h slab puts every
  // republish cycle astride a slab boundary (publish in one slab, expire /
  // re-provide in the next).  The content machinery never reads the slab,
  // so the bytes must not move.
  ScenarioSpec spec = *ScenarioSpec::builtin("content-baseline");
  spec.population.scale = kScale;
  const CampaignConfig config = spec.to_campaign_config();

  const std::string oracle = run_to_json(config);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(run_sharded_json(config, 4, 2, 7 * kHour), oracle);
}

TEST(ShardedCampaign, TinySlabMatchesOracle) {
  // A pathological 1-minute slab on a churned run: chains buffer at most a
  // transition or two and refill constantly.  Slow, so keep it to one
  // configuration — the point is only that refill frequency is invisible.
  ScenarioSpec spec = *ScenarioSpec::builtin("churn-baseline");
  spec.population.scale = kScale;
  const CampaignConfig config = spec.to_campaign_config();
  EXPECT_EQ(run_sharded_json(config, 2, 2, kMinute), run_to_json(config));
}

TEST(ShardedCampaign, ValidateRejectsBadPlans) {
  CampaignConfig config = churned_content_config(7);

  config.sharding = ShardPlan{.shards = 0};
  auto error = CampaignEngine::validate(config);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("sharding.shards"), std::string::npos) << *error;

  config.sharding = ShardPlan{.shards = 2, .workers = 0, .slab = 0};
  error = CampaignEngine::validate(config);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("sharding.slab"), std::string::npos) << *error;

  config.sharding = ShardPlan{};
  EXPECT_EQ(CampaignEngine::validate(config), std::nullopt);
}

TEST(ShardedCampaign, RunnerValidatePropagatesConfigErrors) {
  CampaignConfig config = churned_content_config(7);
  config.population.scale = 0.0;  // invalid underlying config
  EXPECT_TRUE(
      runtime::ShardedCampaignRunner::validate(config, {}).has_value());

  EXPECT_EQ(runtime::ShardedCampaignRunner::validate(
                churned_content_config(7), {.shards = 5, .workers = 3}),
            std::nullopt);
}

TEST(ShardedCampaign, RunnerResolvesDefaultsToHardwareAndDefaultSlab) {
  const ShardPlan plan = runtime::ShardedCampaignRunner().resolve_plan();
  EXPECT_GE(plan.shards, 1u);
  EXPECT_EQ(plan.workers, 0u);  // auto -> budget lease at engine build
  EXPECT_EQ(plan.slab, ShardPlan{}.slab);

  const ShardPlan chosen =
      runtime::ShardedCampaignRunner({.shards = 6, .workers = 2, .slab = kHour})
          .resolve_plan();
  EXPECT_EQ(chosen.shards, 6u);
  EXPECT_EQ(chosen.workers, 2u);
  EXPECT_EQ(chosen.slab, kHour);
}

TEST(ShardedCampaign, CollectingRunMatchesEngineResult) {
  // A sharded run collected in memory must agree with the unsharded run on
  // every run-level count, including the event count — sharding adds no
  // simulation events.
  const CampaignConfig config = churned_content_config(21);
  const measure::CollectingSink oracle = testing::run_campaign(config);

  measure::CollectingSink sharded;
  const auto outcome =
      runtime::ShardedCampaignRunner({.shards = 4, .workers = 2}).run(config, sharded);
  ASSERT_TRUE(outcome.has_value()) << outcome.error();
  EXPECT_EQ(sharded.summary().events_executed, oracle.summary().events_executed);
  EXPECT_EQ(sharded.summary().population_size, oracle.summary().population_size);
  EXPECT_EQ(sharded.population().size(), oracle.population().size());
  EXPECT_EQ(sharded.content().size(), oracle.content().size());
  EXPECT_EQ(sharded.crawls().size(), oracle.crawls().size());
}

TEST(ShardedCampaign, AutoWorkerPlansLeaseFromProcessBudget) {
  // workers = 0 resolves through the process WorkerBudget; whatever it
  // grants, the bytes must not depend on it.
  const CampaignConfig config = churned_content_config(3);
  const std::string oracle = run_to_json(config);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(run_sharded_json(config, 4, /*workers=*/0), oracle);
}

}  // namespace
}  // namespace ipfs::scenario
