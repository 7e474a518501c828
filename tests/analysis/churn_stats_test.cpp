// Unit tests for session reconstruction and the churn statistics built on
// it (analysis/churn_stats.hpp): gap-threshold clustering, summary
// aggregation, availability sweeps and observed-vs-true alignment — all on
// hand-built datasets with known answers.
#include "analysis/churn_stats.hpp"

#include <gtest/gtest.h>

#include "measure/dataset.hpp"

namespace ipfs::analysis {
namespace {

using common::kMinute;
using common::kSecond;

measure::ConnRecord conn(measure::PeerIndex peer, common::SimTime opened,
                         common::SimTime closed) {
  measure::ConnRecord record;
  record.peer = peer;
  record.opened = opened;
  record.closed = closed;
  return record;
}

/// Two peers: peer 0 with two sessions split by a 2 h silence, peer 1 with
/// one session of two overlapping connections.
measure::Dataset two_peer_dataset() {
  measure::Dataset dataset;
  (void)dataset.intern(p2p::PeerId::from_seed(1), 0);
  (void)dataset.intern(p2p::PeerId::from_seed(2), 0);
  // Peer 0, session A: [0, 10 min] then [12 min, 20 min] (2 min gap).
  dataset.add_connection(conn(0, 0, 10 * kMinute));
  dataset.add_connection(conn(0, 12 * kMinute, 20 * kMinute));
  // Peer 0, session B after a 2 h silence: [140 min, 150 min].
  dataset.add_connection(conn(0, 140 * kMinute, 150 * kMinute));
  // Peer 1: overlapping connections, one session [5 min, 60 min].
  dataset.add_connection(conn(1, 5 * kMinute, 60 * kMinute));
  dataset.add_connection(conn(1, 10 * kMinute, 30 * kMinute));
  return dataset;
}

TEST(ChurnStats, ReconstructsSessionsByGapThreshold) {
  const auto sessions = reconstruct_sessions(two_peer_dataset(), 30 * kMinute);
  ASSERT_EQ(sessions.size(), 3u);

  EXPECT_EQ(sessions[0].peer, 0u);
  EXPECT_EQ(sessions[0].begin, 0);
  EXPECT_EQ(sessions[0].end, 20 * kMinute);
  EXPECT_EQ(sessions[0].connections, 2u);

  EXPECT_EQ(sessions[1].peer, 0u);
  EXPECT_EQ(sessions[1].begin, 140 * kMinute);
  EXPECT_EQ(sessions[1].end, 150 * kMinute);

  EXPECT_EQ(sessions[2].peer, 1u);
  EXPECT_EQ(sessions[2].begin, 5 * kMinute);
  EXPECT_EQ(sessions[2].end, 60 * kMinute);
  EXPECT_EQ(sessions[2].connections, 2u);
}

TEST(ChurnStats, GapThresholdControlsTheSplit) {
  // With a 3 h threshold the 2 h silence no longer splits peer 0.
  const auto sessions = reconstruct_sessions(two_peer_dataset(), 180 * kMinute);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].peer, 0u);
  EXPECT_EQ(sessions[0].end, 150 * kMinute);
  EXPECT_EQ(sessions[0].connections, 3u);
}

TEST(ChurnStats, SummaryCountsPeersAndMultiSessionPeers) {
  const auto sessions = reconstruct_sessions(two_peer_dataset(), 30 * kMinute);
  const ChurnStats stats = compute_churn_stats(sessions);
  EXPECT_EQ(stats.session_count, 3u);
  EXPECT_EQ(stats.peers, 2u);
  EXPECT_EQ(stats.multi_session_peers, 1u);  // only peer 0 returned
  // Lengths: 20, 10 and 55 minutes.
  EXPECT_NEAR(stats.median_session_s, 20.0 * 60.0, 1e-9);
  EXPECT_NEAR(stats.mean_session_s, (20.0 + 10.0 + 55.0) * 60.0 / 3.0, 1e-9);
  EXPECT_EQ(stats.session_length_cdf.size(), 3u);
  EXPECT_NEAR(stats.session_length_cdf.fraction_at_most(15.0 * 60.0), 1.0 / 3.0,
              1e-9);
}

TEST(ChurnStats, SessionsOpenAtTraceEndAreCensored) {
  // Same two peers, but with a real measurement window that closes 10
  // minutes after peer 0's last contact — inside the 30 min gap
  // threshold, so that final session could still have been open.
  measure::Dataset dataset = two_peer_dataset();
  dataset.measurement_start = 0;
  dataset.measurement_end = 160 * kMinute;
  const auto sessions = reconstruct_sessions(dataset, 30 * kMinute);
  ASSERT_EQ(sessions.size(), 3u);
  EXPECT_FALSE(sessions[0].censored);  // [0, 20 min]: gap closed at 50 min
  EXPECT_TRUE(sessions[1].censored);   // [140, 150 min]: 150 + 30 > 160
  EXPECT_FALSE(sessions[2].censored);  // [5, 60 min]: gap closed at 90 min
}

TEST(ChurnStats, CensoredSessionsExcludedFromLengthStats) {
  measure::Dataset dataset = two_peer_dataset();
  dataset.measurement_start = 0;
  dataset.measurement_end = 160 * kMinute;
  const auto sessions = reconstruct_sessions(dataset, 30 * kMinute);
  const ChurnStats stats = compute_churn_stats(sessions);
  EXPECT_EQ(stats.session_count, 3u);
  EXPECT_EQ(stats.censored_sessions, 1u);
  EXPECT_EQ(stats.completed_sessions(), 2u);
  EXPECT_EQ(stats.peers, 2u);
  EXPECT_EQ(stats.multi_session_peers, 1u);
  // Completed lengths: 20 and 55 minutes; the censored 10 min tail
  // observation must not drag the statistics down.
  EXPECT_EQ(stats.session_length_cdf.size(), 2u);
  EXPECT_NEAR(stats.mean_session_s, (20.0 + 55.0) * 60.0 / 2.0, 1e-9);
  EXPECT_NEAR(stats.median_session_s, (20.0 + 55.0) * 60.0 / 2.0, 1e-9);
  EXPECT_NEAR(stats.session_length_cdf.fraction_at_most(10.0 * 60.0), 0.0,
              1e-9);
}

TEST(ChurnStats, NoMeasurementWindowMeansNoCensoring) {
  // Hand-built datasets leave measurement_end at 0; the censoring rule
  // must not fire without a real window or every session would censor.
  const auto sessions = reconstruct_sessions(two_peer_dataset(), 30 * kMinute);
  for (const SessionTrace& session : sessions) {
    EXPECT_FALSE(session.censored);
  }
  EXPECT_EQ(compute_churn_stats(sessions).censored_sessions, 0u);
}

TEST(ChurnStats, EmptyDatasetYieldsEmptyStats) {
  const ChurnStats stats = compute_churn_stats({});
  EXPECT_EQ(stats.session_count, 0u);
  EXPECT_EQ(stats.peers, 0u);
  EXPECT_EQ(stats.multi_session_peers, 0u);
  EXPECT_EQ(stats.mean_session_s, 0.0);
}

TEST(ChurnStats, AvailabilitySweepCountsInSessionPeers) {
  const auto sessions = reconstruct_sessions(two_peer_dataset(), 30 * kMinute);
  std::vector<measure::PopulationSample> grid(16);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].at = static_cast<common::SimTime>(i) * 10 * kMinute;
  }
  const auto series = observed_vs_true(sessions, grid);
  ASSERT_EQ(series.size(), 16u);
  EXPECT_EQ(series[0].observed, 1u);   // t=0: peer 0 only
  EXPECT_EQ(series[1].observed, 2u);   // t=10 min: both (session edges inclusive)
  EXPECT_EQ(series[3].observed, 1u);   // t=30 min: peer 1 only
  EXPECT_EQ(series[7].observed, 0u);   // t=70 min: silence
  EXPECT_EQ(series[14].observed, 1u);  // t=140 min: peer 0 is back
  EXPECT_EQ(series[15].observed, 1u);
}

TEST(ChurnStats, ObservedVsTrueEvaluatesOnTheTruthGrid) {
  const auto sessions = reconstruct_sessions(two_peer_dataset(), 30 * kMinute);
  std::vector<measure::PopulationSample> truth;
  for (int i = 0; i <= 5; ++i) {
    measure::PopulationSample sample;
    sample.at = i * 30 * kMinute;
    sample.online = 3;
    sample.total = 10;
    truth.push_back(sample);
  }
  const auto series = observed_vs_true(sessions, truth);
  ASSERT_EQ(series.size(), truth.size());
  EXPECT_EQ(series[0].at, 0);
  EXPECT_EQ(series[0].observed, 1u);  // t=0: peer 0 only
  EXPECT_EQ(series[1].observed, 1u);  // t=30 min: peer 1
  EXPECT_EQ(series[2].observed, 1u);  // t=60 min: peer 1 (session edges inclusive)
  EXPECT_EQ(series[3].observed, 0u);  // t=90 min: silence
  EXPECT_EQ(series[5].observed, 1u);  // t=150 min: peer 0 is back
  for (const ObservedVsTrueSample& sample : series) {
    EXPECT_EQ(sample.true_online, 3u);
    EXPECT_EQ(sample.true_total, 10u);
    EXPECT_LT(sample.observed, sample.true_total);
  }
}

TEST(ChurnStats, ObservedVsTrueHandlesNonUniformTruthGrids) {
  // Truth samples need not be evenly spaced (filtered series, merged
  // trials): each point must be evaluated at its own timestamp.
  const auto sessions = reconstruct_sessions(two_peer_dataset(), 30 * kMinute);
  std::vector<measure::PopulationSample> truth;
  for (const common::SimTime at :
       {0L, 30L * kMinute, 145L * kMinute}) {  // uneven spacing
    measure::PopulationSample sample;
    sample.at = at;
    sample.online = 2;
    sample.total = 10;
    truth.push_back(sample);
  }
  const auto series = observed_vs_true(sessions, truth);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].at, 0);
  EXPECT_EQ(series[0].observed, 1u);  // peer 0's first session
  EXPECT_EQ(series[1].at, 30 * kMinute);
  EXPECT_EQ(series[1].observed, 1u);  // peer 1
  EXPECT_EQ(series[2].at, 145 * kMinute);
  EXPECT_EQ(series[2].observed, 1u);  // peer 0's second session [140, 150]
}

}  // namespace
}  // namespace ipfs::analysis
