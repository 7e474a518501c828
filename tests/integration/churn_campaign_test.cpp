// End-to-end session-churn acceptance (DESIGN.md §10): a campaign with a
// `"churn"` section produces genuine first/last-seen session traces at
// the vantage (peers leave *and return*), the true network is never fully
// online nor fully observed, and churned sweeps stay byte-identical
// across ParallelTrialRunner worker counts.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/churn_stats.hpp"
#include "measure/sink.hpp"
#include "runtime/parallel.hpp"
#include "scenario/scenario_spec.hpp"
#include "testing/campaign.hpp"

namespace ipfs::scenario {
namespace {

using common::kHour;
using common::kMinute;

/// One shared churn-baseline run (campaigns are deterministic, so sharing
/// across the assertions below is sound).
const measure::CollectingSink& churned_result() {
  static const measure::CollectingSink result = [] {
    ScenarioSpec spec = *ScenarioSpec::builtin("churn-baseline");
    spec.population.scale = 0.01;
    return testing::run_campaign(spec.to_campaign_config());
  }();
  return result;
}

TEST(ChurnCampaign, SomePeersAreObservedAcrossMultipleSessions) {
  const measure::CollectingSink& result = churned_result();
  const auto sessions =
      analysis::reconstruct_sessions(testing::vantage(result), 30 * kMinute);
  const auto stats = analysis::compute_churn_stats(sessions);
  EXPECT_GT(stats.session_count, stats.peers);  // more sessions than peers...
  EXPECT_GE(stats.multi_session_peers, 5u);     // ...because peers come back
  EXPECT_GT(stats.mean_session_s, 0.0);
  EXPECT_GT(stats.median_session_s, 0.0);
  // A heavy-tailed session CDF: the mean sits right of the median.
  EXPECT_GT(stats.mean_session_s, stats.median_session_s);
}

TEST(ChurnCampaign, TrueNetworkIsNeverFullyOnlineNorFullyObserved) {
  const measure::CollectingSink& result = churned_result();
  ASSERT_GE(result.population().size(), 20u);  // hourly over a day
  for (const measure::PopulationSample& sample : result.population()) {
    EXPECT_GT(sample.online, 0u) << "at " << sample.at;
    EXPECT_LT(sample.online, sample.total) << "at " << sample.at;
    // The passive vantage connects to a strict subset of the truly online
    // peers: observed network size < true network size at all times.
    EXPECT_LT(sample.connected, sample.online) << "at " << sample.at;
    EXPECT_EQ(sample.total, result.summary().population_size);
  }
}

TEST(ChurnCampaign, ObservedVsTrueSeriesAlignsWithGroundTruth) {
  const measure::CollectingSink& result = churned_result();
  const auto sessions = analysis::reconstruct_sessions(testing::vantage(result));
  const auto series = analysis::observed_vs_true(sessions, result.population());
  ASSERT_EQ(series.size(), result.population().size());
  std::size_t strictly_below = 0;
  for (const analysis::ObservedVsTrueSample& sample : series) {
    EXPECT_LT(sample.observed, sample.true_total);
    if (sample.observed < sample.true_online) ++strictly_below;
  }
  // Reconstruction bridges short offline gaps, so individual points may
  // exceed the instantaneous truth; the series as a whole must sit below.
  EXPECT_GT(strictly_below, series.size() / 2);
}

TEST(ChurnCampaign, DepartedPeersStayLearnedButUnreached) {
  // The crawler keeps learning PIDs it cannot reach: with churn engaged,
  // every crawl must report fewer reached servers than learned PIDs
  // (stale routing-table entries referencing departed peers).
  const measure::CollectingSink& result = churned_result();
  ASSERT_FALSE(result.crawls().empty());
  for (const measure::CrawlObservation& crawl : result.crawls()) {
    EXPECT_LT(crawl.reached_servers, crawl.learned_pids) << "at " << crawl.at;
  }
}

TEST(ChurnCampaign, RejoiningDualHomedPeersRedrawAddresses) {
  // Rejoins may swap a dual-homed peer's primary IP, so multi-IP PIDs must
  // be visible in the dataset (the §V-A grouping key stays live).
  const measure::CollectingSink& result = churned_result();
  std::size_t multi_ip_peers = 0;
  for (const auto& peer : testing::vantage(result).peers()) {
    if (peer.connected_ips.size() >= 2) ++multi_ip_peers;
  }
  EXPECT_GE(multi_ip_peers, 1u);
}

TEST(ChurnCampaign, AbsentChurnSectionPublishesNoPopulationSamples) {
  ScenarioSpec spec = *ScenarioSpec::builtin("p1");
  spec.population.scale = 0.002;
  const auto result = testing::run_campaign(spec.to_campaign_config());
  EXPECT_TRUE(result.population().empty());
}

TEST(ChurnCampaign, ChurnedSweepByteIdenticalAcrossWorkerCounts) {
  ScenarioSpec spec = *ScenarioSpec::builtin("diurnal-churn");
  spec.population.scale = 0.002;
  spec.campaign.trials = 3;
  testing::expect_sweep_worker_invariant(spec);
}

TEST(ChurnCampaign, PopulationSamplesReachTheJsonExport) {
  // The CLI artifact must carry the observed-vs-true baseline: a churned
  // run's export ends with a population_samples document.
  ScenarioSpec spec = *ScenarioSpec::builtin("churn-baseline");
  spec.population.scale = 0.002;
  const std::string exported = testing::run_to_json(spec.to_campaign_config());
  EXPECT_NE(exported.find("\"population_samples\""), std::string::npos);
  EXPECT_NE(exported.find("\"online\""), std::string::npos);
  // ...and a legacy run's export carries none.
  ScenarioSpec plain = *ScenarioSpec::builtin("p1");
  plain.population.scale = 0.002;
  EXPECT_EQ(testing::run_to_json(plain.to_campaign_config())
                .find("population_samples"),
            std::string::npos);
}

}  // namespace
}  // namespace ipfs::scenario
