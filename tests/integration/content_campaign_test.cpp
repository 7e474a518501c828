// End-to-end content-workload acceptance (DESIGN.md §11): a campaign with
// a `"content"` section drives provide → republish → expire chains into
// the vantage record stores, real Bitswap want/block fetch traffic, and
// records-at-vantage samples against ground truth — all deterministically,
// byte-identical across ParallelTrialRunner worker counts.
#include <gtest/gtest.h>

#include "analysis/content_stats.hpp"
#include "measure/sink.hpp"
#include "scenario/scenario_spec.hpp"
#include "testing/campaign.hpp"

namespace ipfs::scenario {
namespace {

using common::kHour;

/// One shared content-baseline run (campaigns are deterministic, so
/// sharing across the assertions below is sound).
const measure::CollectingSink& content_result() {
  static const measure::CollectingSink result = [] {
    ScenarioSpec spec = *ScenarioSpec::builtin("content-baseline");
    spec.population.scale = 0.01;
    return testing::run_campaign(spec.to_campaign_config());
  }();
  return result;
}

TEST(ContentCampaign, ProvidesLandAndRepublishCyclesFollow) {
  const measure::CollectingSink& result = content_result();
  const analysis::ProvideStats stats =
      analysis::compute_provide_stats(result.provides());
  EXPECT_GT(stats.provides, 100u);
  // The keyspace scales with the population (512 keys * scale 0.01 -> 5),
  // and the workload covers essentially all of it.
  EXPECT_GE(stats.distinct_keys, 4u);
  EXPECT_GT(stats.distinct_providers, 50u);
  // A 1-day period on a 12 h republish cycle sees genuine republishes.
  EXPECT_GT(stats.republishes, 0u);
  EXPECT_LT(stats.republishes, stats.provides);
}

TEST(ContentCampaign, FetchesFindProvidersAndGetServed) {
  const measure::CollectingSink& result = content_result();
  const analysis::FetchStats stats =
      analysis::compute_fetch_stats(result.fetches());
  ASSERT_GT(stats.fetches, 100u);
  // Most fetches find a provider record at the vantage, and most of those
  // complete a genuine want/block exchange with a measured latency.
  EXPECT_GT(stats.lookup_success_rate, 0.3);
  EXPECT_GT(stats.served, 0u);
  EXPECT_LE(stats.served, stats.found_provider);
  EXPECT_GT(stats.mean_latency_ms, 0.0);
}

TEST(ContentCampaign, RecordsAtVantageTrackGroundTruth) {
  const measure::CollectingSink& result = content_result();
  ASSERT_GE(result.content().size(), 20u);  // hourly over a day
  const auto coverage = analysis::record_coverage(result.content());
  std::size_t populated = 0;
  for (const analysis::RecordCoverageSample& sample : coverage) {
    EXPECT_LE(sample.vantage_keys, sample.vantage_records);
    if (sample.true_records > 0 && sample.vantage_records > 0) ++populated;
  }
  // Once the workload warms up the vantage holds records against a
  // non-empty ground truth for most of the period.
  EXPECT_GT(populated, coverage.size() / 2);
}

TEST(ContentCampaign, AbsentContentSectionPublishesNoContentStreams) {
  ScenarioSpec spec = *ScenarioSpec::builtin("p1");
  spec.population.scale = 0.002;
  const auto result = testing::run_campaign(spec.to_campaign_config());
  EXPECT_TRUE(result.provides().empty());
  EXPECT_TRUE(result.fetches().empty());
  EXPECT_TRUE(result.content().empty());
}

TEST(ContentCampaign, ContentStreamsReachTheJsonExport) {
  ScenarioSpec spec = *ScenarioSpec::builtin("content-baseline");
  spec.population.scale = 0.005;
  const std::string exported = testing::run_to_json(spec.to_campaign_config());
  EXPECT_NE(exported.find("\"provide_samples\""), std::string::npos);
  EXPECT_NE(exported.find("\"fetch_samples\""), std::string::npos);
  EXPECT_NE(exported.find("\"content_samples\""), std::string::npos);
  // ...and a legacy run's export carries none of them.
  ScenarioSpec plain = *ScenarioSpec::builtin("p1");
  plain.population.scale = 0.002;
  const std::string legacy = testing::run_to_json(plain.to_campaign_config());
  EXPECT_EQ(legacy.find("provide_samples"), std::string::npos);
  EXPECT_EQ(legacy.find("fetch_samples"), std::string::npos);
  EXPECT_EQ(legacy.find("content_samples"), std::string::npos);
}

TEST(ContentCampaign, FlashFetchStressesTheReplacementCaches) {
  // The hot-keyspace builtin: short TTLs and a fetch rate an order of
  // magnitude above the provide rate still run to completion with
  // plausible streams.
  ScenarioSpec spec = *ScenarioSpec::builtin("flash-fetch");
  spec.population.scale = 0.005;
  const auto result = testing::run_campaign(spec.to_campaign_config());
  EXPECT_GT(result.fetches().size(), result.provides().size());
  EXPECT_FALSE(result.content().empty());
}

TEST(ContentCampaign, ContentSweepByteIdenticalAcrossWorkerCounts) {
  ScenarioSpec spec = *ScenarioSpec::builtin("content-baseline");
  spec.population.scale = 0.002;
  spec.campaign.trials = 3;
  testing::expect_sweep_worker_invariant(spec);
}

TEST(ContentCampaign, ContentRunsAreReproducibleAndSeedSensitive) {
  ScenarioSpec spec = *ScenarioSpec::builtin("flash-fetch");
  spec.population.scale = 0.002;
  const std::string first = testing::run_to_json(spec.to_campaign_config());
  const std::string second = testing::run_to_json(spec.to_campaign_config());
  EXPECT_EQ(first, second);
  spec.campaign.seed += 1;
  EXPECT_NE(testing::run_to_json(spec.to_campaign_config()), first);
}

}  // namespace
}  // namespace ipfs::scenario
