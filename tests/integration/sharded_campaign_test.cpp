// Sharded-vs-oracle property tests for intra-trial sharding (DESIGN.md
// §13).
//
// Where shard_invariance_test.cpp pins the named scenario families on a
// fixed grid, this suite runs adversarial configs against the unsharded
// oracle:
//
//   * seeded (seed, shard-count, worker-count) rounds on a churned
//     content campaign — different event tapes and slice boundaries;
//   * constant-length sessions (lognormal sigma = 0) that make the whole
//     population transition in lockstep, so every sample tally sees a
//     mass join or leave at one instant;
//   * content republish cycles and a plain churned run;
//
// plus plan validation, the ShardedCampaignRunner facade's error path
// and the `testing::same_bytes` comparator the shard suites report with.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

#include "measure/sink.hpp"
#include "runtime/sharded.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"
#include "testing/campaign.hpp"

namespace ipfs::scenario {
namespace {

using testing::run_sharded_json;
using testing::run_to_json;
using testing::same_bytes;

constexpr double kScale = 0.002;

CampaignConfig churned_content_config(std::uint64_t seed) {
  ScenarioSpec spec = *ScenarioSpec::builtin("content-baseline");
  spec.churn = ScenarioSpec::builtin("churn-baseline")->churn;
  spec.population.scale = kScale;
  CampaignConfig config = spec.to_campaign_config();
  config.seed = seed;
  return config;
}

CampaignConfig builtin_config(const char* name) {
  ScenarioSpec spec = *ScenarioSpec::builtin(name);
  spec.population.scale = kScale;
  return spec.to_campaign_config();
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

/// Runs `config` unsharded once and under each (shards, workers) plan,
/// and expects every sharded export to match the oracle's bytes.
void expect_plans_match_oracle(
    const CampaignConfig& config,
    std::initializer_list<std::pair<unsigned, unsigned>> plans) {
  const std::string oracle = run_to_json(config);
  ASSERT_FALSE(oracle.empty());
  for (const auto& [shards, workers] : plans) {
    EXPECT_TRUE(same_bytes(oracle, run_sharded_json(config, shards, workers)))
        << "shards=" << shards << " workers=" << workers;
  }
}

// The five tests below keep the names they had when the engine still
// precomputed churn chains in fixed-length windows; the configs are
// unchanged and each still compares sharded bytes against the oracle.

TEST(ShardedCampaign, RandomizedSeedSlabShardTriplesMatchOracle) {
  // Seeded rounds over the knobs that could plausibly leak into the
  // merge: the campaign seed (different event tapes), the shard count
  // (different slice boundaries) and the worker count.  Drawn once from
  // std::mt19937_64(0x5eed5ab5) and fixed here so the rounds are stable
  // across standard libraries.
  const struct {
    std::uint64_t seed;
    unsigned shards;
    unsigned workers;
  } rounds[] = {{479918, 4, 4}, {874923, 8, 4}, {889094, 4, 4},
                {175317, 7, 1}, {164813, 4, 4}, {681940, 5, 2}};
  for (const auto& round : rounds) {
    SCOPED_TRACE("seed=" + std::to_string(round.seed));
    expect_plans_match_oracle(churned_content_config(round.seed),
                              {{round.shards, round.workers}});
  }
}

TEST(ShardedCampaign, TransitionsExactlyOnSlabEdgesMatchOracle) {
  // session = gap = 30 min, everyone offline at t = 0: the whole
  // population transitions in lockstep at exactly 30 min, 60 min, 90 min…
  CampaignConfig config = builtin_config("churn-baseline");
  config.churn = square_wave_churn(30.0 * 60'000.0, 30.0 * 60'000.0);
  expect_plans_match_oracle(config, {{1, 2}, {3, 2}, {8, 2}});
}

TEST(ShardedCampaign, SessionEndOnSlabEdgeWithOnlineStartMatchesOracle) {
  // The complementary alignment: peers start *online* (first transition
  // inside the first 10 minutes), sessions are a constant 50 min and gaps
  // 70 min, so session ends and rejoins drift against each other.
  CampaignConfig config = builtin_config("churn-baseline");
  config.churn = square_wave_churn(50.0 * 60'000.0, 70.0 * 60'000.0);
  config.churn->initial_online = 1.0;
  expect_plans_match_oracle(config, {{4, 2}});
}

TEST(ShardedCampaign, RepublishCycleStraddlingSlabMatchesOracle) {
  // content-baseline republishes on a 12 h cadence across the run.
  expect_plans_match_oracle(builtin_config("content-baseline"), {{4, 2}});
}

TEST(ShardedCampaign, TinySlabMatchesOracle) {
  // A plain churned run.
  expect_plans_match_oracle(builtin_config("churn-baseline"), {{2, 2}});
}

TEST(ShardedCampaign, ValidateRejectsBadPlans) {
  CampaignConfig config = churned_content_config(7);

  config.sharding = ShardPlan{.shards = 0};
  auto error = CampaignEngine::validate(config);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("sharding.shards"), std::string::npos) << *error;

  config.sharding = ShardPlan{};
  EXPECT_EQ(CampaignEngine::validate(config), std::nullopt);
}

TEST(ShardedCampaign, RunnerRunRejectsInvalidConfigAndPublishesNothing) {
  CampaignConfig config = churned_content_config(7);
  config.population.scale = 0.0;  // invalid underlying config

  measure::CollectingSink sink;
  const auto outcome =
      runtime::ShardedCampaignRunner({.shards = 5, .workers = 3}).run(config, sink);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error(), *CampaignEngine::validate(config));
  // No hook fired: no run-begin, samples, datasets or run-end.
  EXPECT_TRUE(sink.description().empty());
  EXPECT_TRUE(sink.crawls().empty());
  EXPECT_TRUE(sink.population().empty());
  EXPECT_TRUE(sink.provides().empty());
  EXPECT_TRUE(sink.fetches().empty());
  EXPECT_TRUE(sink.content().empty());
  EXPECT_TRUE(sink.datasets().empty());
  EXPECT_EQ(sink.summary().events_executed, 0u);
}

TEST(ShardedCampaign, RunnerResolvesDefaultsToHardware) {
  const ShardPlan plan = runtime::ShardedCampaignRunner().resolve_plan();
  EXPECT_GE(plan.shards, 1u);
  EXPECT_EQ(plan.workers, 0u);  // auto -> budget lease at engine build

  const ShardPlan chosen =
      runtime::ShardedCampaignRunner({.shards = 6, .workers = 2}).resolve_plan();
  EXPECT_EQ(chosen.shards, 6u);
  EXPECT_EQ(chosen.workers, 2u);
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
  EXPECT_TRUE(same_bytes(oracle, run_sharded_json(config, 4, /*workers=*/0)));
}

TEST(SameBytes, PassesOnlyOnIdenticalBytes) {
  EXPECT_TRUE(same_bytes("", ""));
  EXPECT_TRUE(same_bytes("{\"a\": 1}\n", "{\"a\": 1}\n"));
  EXPECT_FALSE(same_bytes("abc", "abd"));
  // A strict prefix is a difference too, in either direction.
  EXPECT_FALSE(same_bytes("abc", "ab"));
  EXPECT_FALSE(same_bytes("ab", "abc"));
  EXPECT_FALSE(same_bytes("", "x"));
}

TEST(SameBytes, NamesTheFirstDifferingOffsetLineAndContext) {
  const std::string expected =
      "{\n  \"peers\": 10,\n  \"online\": 4,\n  \"crawls\": 2\n}\n";
  std::string actual = expected;
  const std::size_t offset = expected.find('4');
  actual[offset] = '5';
  const std::string message = same_bytes(expected, actual).message();
  EXPECT_NE(message.find("byte " + std::to_string(offset) + " (line 3)"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("\"online\": 4"), std::string::npos) << message;
  EXPECT_NE(message.find("\"online\": 5"), std::string::npos) << message;
  EXPECT_NE(message.find("\\n"), std::string::npos) << message;

  const std::string truncated = expected.substr(0, 12);
  const std::string short_message = same_bytes(expected, truncated).message();
  EXPECT_NE(short_message.find("byte 12 (line 2)"), std::string::npos)
      << short_message;
  EXPECT_NE(short_message.find("lengths " + std::to_string(expected.size()) +
                               " vs 12"),
            std::string::npos)
      << short_message;

  // The context window stays bounded however large the exports are.
  const std::string large(100'000, 'x');
  std::string large_actual = large;
  large_actual[50'000] = 'y';
  const std::string large_message = same_bytes(large, large_actual).message();
  EXPECT_NE(large_message.find("byte 50000 (line 1)"), std::string::npos)
      << large_message;
  EXPECT_LT(large_message.size(), 400u) << large_message;
}

}  // namespace
}  // namespace ipfs::scenario
