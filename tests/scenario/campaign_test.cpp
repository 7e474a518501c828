#include "scenario/campaign.hpp"

#include <gtest/gtest.h>

#include "analysis/connection_stats.hpp"
#include "testing/campaign.hpp"

namespace ipfs::scenario {
namespace {

using common::kDay;
using common::kHour;
using measure::DatasetRole;
using testing::run_campaign;
using testing::small_config;
using testing::vantage;

TEST(Campaign, PeriodPresetsMatchTableOne) {
  const auto p0 = PeriodSpec::P0();
  EXPECT_EQ(p0.duration, 3 * kDay);
  EXPECT_EQ(p0.go_low_water, 600);
  EXPECT_EQ(p0.go_high_water, 900);
  EXPECT_EQ(p0.hydra_heads, 3);

  const auto p2 = PeriodSpec::P2();
  EXPECT_EQ(p2.go_low_water, 18000);
  EXPECT_EQ(p2.hydra_heads, 2);

  const auto p3 = PeriodSpec::P3();
  EXPECT_EQ(p3.go_ipfs_mode, dht::Mode::kClient);
  EXPECT_EQ(p3.hydra_heads, 0);

  EXPECT_EQ(PeriodSpec::P4().duration, 3 * kDay);
  EXPECT_EQ(PeriodSpec::Long14d().duration, 14 * kDay);
  EXPECT_EQ(PeriodSpec::table1().size(), 5u);
}

TEST(Campaign, FactoryRejectsInvalidConfigs) {
  // Every Table I preset passes validation.
  for (const auto& period : PeriodSpec::table1()) {
    EXPECT_EQ(CampaignEngine::validate(small_config(period)), std::nullopt)
        << period.name;
  }

  auto no_duration = small_config(PeriodSpec::P4());
  no_duration.period.duration = 0;
  EXPECT_FALSE(CampaignEngine::create(no_duration).has_value());

  auto inverted_watermarks = small_config(PeriodSpec::P4());
  inverted_watermarks.period.go_low_water = 900;
  inverted_watermarks.period.go_high_water = 600;
  EXPECT_FALSE(CampaignEngine::create(inverted_watermarks).has_value());

  auto no_vantage = small_config(PeriodSpec::P4());
  no_vantage.period.go_ipfs_present = false;
  no_vantage.period.hydra_heads = 0;
  EXPECT_FALSE(CampaignEngine::create(no_vantage).has_value());

  auto bad_scale = small_config(PeriodSpec::P4(), 0.02);
  bad_scale.population.scale = 0.0;
  EXPECT_FALSE(CampaignEngine::create(bad_scale).has_value());

  auto bad_visibility = small_config(PeriodSpec::P4());
  bad_visibility.vantage_visibility = 1.5;
  const auto error = CampaignEngine::create(bad_visibility);
  ASSERT_FALSE(error.has_value());
  EXPECT_FALSE(error.error().empty());
}

TEST(Campaign, FactoryRefusesWhatTheScenarioLayerRefuses) {
  // Population rules are checked by the engine, so a C++ config fails with
  // the messages a scenario file gets (scenario_spec_test.cpp).
  auto bad_groups = small_config(PeriodSpec::P4());
  bad_groups.population.counts.nat_group_min = 6;
  bad_groups.population.counts.nat_group_max = 2;
  const auto groups = CampaignEngine::create(bad_groups);
  ASSERT_FALSE(groups.has_value());
  EXPECT_EQ(groups.error(),
            "population.counts: nat_group_max must be >= nat_group_min");

  auto bad_session = small_config(PeriodSpec::P4());
  CategoryParams crawler = default_params(Category::kCrawler);
  crawler.mean_session = -1;
  bad_session.population.set_override(Category::kCrawler, crawler);
  const auto session = CampaignEngine::create(bad_session);
  ASSERT_FALSE(session.has_value());
  EXPECT_EQ(session.error(),
            "population.categories.crawler: mean_session_ms must be >= 0");

  auto bad_nat = small_config(PeriodSpec::P4());
  bad_nat.conditions.emplace();
  bad_nat.conditions->nat.categories.emplace_back("warthog", "home");
  const auto nat = CampaignEngine::create(bad_nat);
  ASSERT_FALSE(nat.has_value());
  EXPECT_EQ(nat.error(), "network.nat.categories: unknown category name 'warthog'");
}

TEST(Campaign, ProducesDatasetsPerVantage) {
  auto period = PeriodSpec::P1();
  period.duration = 6 * kHour;  // shorten for the test
  const auto result = run_campaign(small_config(period));
  const auto* go_ipfs = result.find(DatasetRole::kVantage);
  ASSERT_NE(go_ipfs, nullptr);
  std::size_t heads = 0;
  for (const auto& entry : result.datasets()) {
    if (entry.role == DatasetRole::kHydraHead) ++heads;
  }
  ASSERT_EQ(heads, 2u);
  ASSERT_NE(result.find(DatasetRole::kHydraUnion), nullptr);
  EXPECT_GT(go_ipfs->peer_count(), 0u);
  EXPECT_GT(go_ipfs->connection_count(), 0u);
  EXPECT_GT(result.summary().population_size, 0u);
  EXPECT_GT(result.summary().events_executed, 1000u);
}

TEST(Campaign, DeterministicAcrossRuns) {
  auto period = PeriodSpec::P4();
  period.duration = 6 * kHour;
  const auto a = run_campaign(small_config(period));
  const auto b = run_campaign(small_config(period));
  EXPECT_EQ(vantage(a).peer_count(), vantage(b).peer_count());
  EXPECT_EQ(vantage(a).connection_count(), vantage(b).connection_count());
  EXPECT_EQ(a.summary().events_executed, b.summary().events_executed);
}

TEST(Campaign, DifferentSeedsDiffer) {
  auto period = PeriodSpec::P4();
  period.duration = 6 * kHour;
  const auto a = run_campaign(small_config(period, 0.02, 1));
  const auto b = run_campaign(small_config(period, 0.02, 2));
  EXPECT_NE(vantage(a).connection_count(), vantage(b).connection_count());
}

TEST(Campaign, HydraUnionAtLeastEachHead) {
  auto period = PeriodSpec::P1();
  period.duration = 6 * kHour;
  const auto result = run_campaign(small_config(period));
  const auto* hydra_union = result.find(DatasetRole::kHydraUnion);
  ASSERT_NE(hydra_union, nullptr);
  // The union's connection records are the concatenation of the heads'.
  std::size_t head_conns = 0;
  for (const auto& entry : result.datasets()) {
    if (entry.role != DatasetRole::kHydraHead) continue;
    EXPECT_GE(hydra_union->peer_count(), entry.dataset.peer_count());
    head_conns += entry.dataset.connection_count();
  }
  EXPECT_EQ(hydra_union->connection_count(), head_conns);
}

TEST(Campaign, LowWatermarksCauseTrimming) {
  auto period = PeriodSpec::P0();  // 600/900 at full scale
  period.duration = 6 * kHour;
  period.hydra_heads = 0;
  period.go_low_water = 12;  // scaled-down equivalents
  period.go_high_water = 18;
  const auto result = run_campaign(small_config(period));
  const auto reasons = analysis::compute_close_reasons(vantage(result));
  EXPECT_GT(reasons.local_trim, 0u);
}

TEST(Campaign, HighWatermarksAvoidOwnTrimming) {
  auto period = PeriodSpec::P4();  // 18k/20k: far above a 2 % population
  period.duration = 6 * kHour;
  const auto result = run_campaign(small_config(period));
  const auto reasons = analysis::compute_close_reasons(vantage(result));
  EXPECT_EQ(reasons.local_trim, 0u);
  EXPECT_GT(reasons.remote_trim + reasons.remote_close, 0u);
}

TEST(Campaign, ClientVantageSeesFewerPeersWithOutboundConns) {
  auto server_period = PeriodSpec::P4();
  server_period.duration = 6 * kHour;
  auto client_period = PeriodSpec::P3();
  client_period.duration = 6 * kHour;

  const auto server_result = run_campaign(small_config(server_period));
  const auto client_result = run_campaign(small_config(client_period));

  EXPECT_LT(vantage(client_result).peer_count(), vantage(server_result).peer_count());

  // P3's connections are outbound dials from the vantage.
  const auto stats = analysis::compute_connection_stats(vantage(client_result));
  EXPECT_GT(stats.direction.outbound_count, stats.direction.inbound_count);
}

TEST(Campaign, CrawlerSnapshotsCollected) {
  auto period = PeriodSpec::P4();
  period.duration = 18 * kHour;
  const auto result = run_campaign(small_config(period));
  EXPECT_GE(result.crawls().size(), 2u);
  for (const auto& crawl : result.crawls()) {
    EXPECT_GT(crawl.reached_servers, 0u);
    EXPECT_GE(crawl.learned_pids, crawl.reached_servers);
  }
  const auto [low, high] = measure::crawler_min_max(result.crawls());
  EXPECT_GT(low, 0u);
  EXPECT_GE(high, low);
}

TEST(Campaign, CrawlerDisabled) {
  auto period = PeriodSpec::P4();
  period.duration = 6 * kHour;
  auto config = small_config(period);
  config.enable_crawler = false;
  EXPECT_TRUE(run_campaign(config).crawls().empty());
}

TEST(Campaign, MetadataDynamicsToggle) {
  auto period = PeriodSpec::P4();
  period.duration = 12 * kHour;
  auto config = small_config(period, 0.05);
  config.enable_metadata_dynamics = false;
  const auto result = run_campaign(config);
  // Without dynamics no peer ever changes its agent string.
  for (const auto& peer : vantage(result).peers()) {
    EXPECT_LE(peer.agent_history.size(), 1u);
  }
}

TEST(Campaign, RecorderQuantisesToPollGrid) {
  auto period = PeriodSpec::P4();
  period.duration = 6 * kHour;
  const auto result = run_campaign(small_config(period));
  for (const auto& record : vantage(result).connections()) {
    EXPECT_EQ(record.opened % (30 * common::kSecond), 0) << "30 s poll grid";
    EXPECT_GE(record.closed, record.opened);
  }
}

}  // namespace
}  // namespace ipfs::scenario
