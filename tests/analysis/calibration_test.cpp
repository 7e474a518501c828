// Unit tests for the churn-calibration module (analysis/calibration.hpp):
// censored-MLE fitter recovery on synthetic draws from each distribution
// family, KS-based family selection with the parsimony tie-break, the
// goodness-of-fit statistics against analytic oracles, and the strict
// malformed-trace corpus of the dataset reader (measure::read_dataset).
#include "analysis/calibration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "scenario/churn.hpp"

namespace ipfs::analysis::calibrate {
namespace {

using scenario::SessionDistribution;

/// `count` uncensored draws from `dist` (deterministic per seed).
std::vector<Observation> draw(const SessionDistribution& dist,
                              std::uint64_t seed, std::size_t count) {
  common::Rng rng(seed);
  std::vector<Observation> sample;
  sample.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sample.push_back({dist.sample(rng), false});
  }
  return sample;
}

/// Right-censor every draw above `horizon_ms` at the horizon, as a trace
/// that ends at a fixed time would.
std::vector<Observation> censor_at(std::vector<Observation> sample,
                                   double horizon_ms) {
  for (Observation& obs : sample) {
    if (obs.value_ms > horizon_ms) {
      obs.value_ms = horizon_ms;
      obs.censored = true;
    }
  }
  return sample;
}

constexpr std::uint64_t kSeeds[] = {7, 20211213, 987654321};

// ---- fitter recovery (3 seeds per family) ----------------------------------

TEST(CalibrationFit, RecoversExponentialParameters) {
  const auto truth = SessionDistribution::exponential(3.6e6);
  for (const std::uint64_t seed : kSeeds) {
    const auto fit = fit_exponential(draw(truth, seed, 4000));
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.mean_ms, truth.mean_ms, 0.05 * truth.mean_ms)
        << "seed " << seed;
  }
}

TEST(CalibrationFit, RecoversWeibullParameters) {
  const auto truth = SessionDistribution::weibull(0.55, 7.2e6);
  for (const std::uint64_t seed : kSeeds) {
    const auto fit = fit_weibull(draw(truth, seed, 4000));
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.shape, truth.shape, 0.05) << "seed " << seed;
    EXPECT_NEAR(fit.dist.scale_ms, truth.scale_ms, 0.10 * truth.scale_ms)
        << "seed " << seed;
  }
}

TEST(CalibrationFit, RecoversLognormalParameters) {
  const auto truth = SessionDistribution::lognormal(7.2e6, 1.1);
  for (const std::uint64_t seed : kSeeds) {
    const auto fit = fit_lognormal(draw(truth, seed, 4000));
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.median_ms, truth.median_ms, 0.10 * truth.median_ms)
        << "seed " << seed;
    EXPECT_NEAR(fit.dist.sigma, truth.sigma, 0.05 * truth.sigma)
        << "seed " << seed;
  }
}

TEST(CalibrationFit, SelectsTheTrueFamilyByKs) {
  const SessionDistribution families[] = {
      SessionDistribution::exponential(3.6e6),
      SessionDistribution::weibull(0.55, 7.2e6),
      SessionDistribution::lognormal(7.2e6, 1.1),
  };
  for (const SessionDistribution& truth : families) {
    for (const std::uint64_t seed : kSeeds) {
      const auto selection = select_family(draw(truth, seed, 4000));
      ASSERT_TRUE(selection.any_ok());
      EXPECT_EQ(selection.selected, scenario::to_string(truth.kind))
          << "seed " << seed;
    }
  }
}

// ---- right-censoring -------------------------------------------------------

TEST(CalibrationFit, CensoredExponentialMleIsUnbiased) {
  // Censor at the mean: ~37% of the sample is right-censored.  The
  // censored MLE (total exposure / completed events) must still recover
  // the mean; the naive mean over the recorded values sits far below it.
  const auto truth = SessionDistribution::exponential(3.6e6);
  for (const std::uint64_t seed : kSeeds) {
    const auto sample = censor_at(draw(truth, seed, 4000), truth.mean_ms);
    double naive = 0.0;
    for (const Observation& obs : sample) naive += obs.value_ms;
    naive /= static_cast<double>(sample.size());

    const auto fit = fit_exponential(sample);
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.mean_ms, truth.mean_ms, 0.08 * truth.mean_ms)
        << "seed " << seed;
    EXPECT_LT(naive, 0.75 * truth.mean_ms);  // the bias the MLE corrects
  }
}

TEST(CalibrationFit, CensoredWeibullMleRecoversTheShape) {
  const auto truth = SessionDistribution::weibull(0.55, 7.2e6);
  for (const std::uint64_t seed : kSeeds) {
    const auto sample =
        censor_at(draw(truth, seed, 4000), truth.analytic_mean() * 2.0);
    const auto fit = fit_weibull(sample);
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.shape, truth.shape, 0.08) << "seed " << seed;
    EXPECT_NEAR(fit.dist.scale_ms, truth.scale_ms, 0.15 * truth.scale_ms)
        << "seed " << seed;
  }
}

TEST(CalibrationFit, CensoredLognormalEmRecoversTheParameters) {
  const auto truth = SessionDistribution::lognormal(7.2e6, 1.1);
  for (const std::uint64_t seed : kSeeds) {
    const auto sample =
        censor_at(draw(truth, seed, 4000), truth.analytic_mean() * 2.0);
    const auto fit = fit_lognormal(sample);
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.median_ms, truth.median_ms, 0.12 * truth.median_ms)
        << "seed " << seed;
    EXPECT_NEAR(fit.dist.sigma, truth.sigma, 0.10 * truth.sigma)
        << "seed " << seed;
  }
}

TEST(CalibrationFit, TooFewUncensoredObservationsFailsCleanly) {
  std::vector<Observation> sample;
  for (int i = 0; i < 10; ++i) sample.push_back({1000.0 * (i + 1), true});
  sample.push_back({5000.0, false});
  for (const FitResult& fit :
       {fit_exponential(sample), fit_weibull(sample), fit_lognormal(sample)}) {
    EXPECT_FALSE(fit.ok);
    EXPECT_NE(fit.note.find("uncensored"), std::string::npos);
  }
  EXPECT_FALSE(select_family(sample).any_ok());
}

// ---- goodness-of-fit statistics --------------------------------------------

TEST(CalibrationStats, CdfMatchesTheAnalyticMedianOracle) {
  const SessionDistribution families[] = {
      SessionDistribution::exponential(3.6e6),
      SessionDistribution::weibull(0.55, 7.2e6),
      SessionDistribution::lognormal(7.2e6, 1.1),
  };
  for (const SessionDistribution& dist : families) {
    EXPECT_NEAR(distribution_cdf(dist, dist.analytic_median()), 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(distribution_cdf(dist, 0.0), 0.0);
  }
}

TEST(CalibrationStats, KsIsSmallForTheTrueFamilyAndLargeOtherwise) {
  const auto truth = SessionDistribution::weibull(0.55, 7.2e6);
  const auto sample = draw(truth, 42, 4000);
  EXPECT_LT(ks_statistic(sample, truth), 0.05);
  EXPECT_GT(ks_statistic(sample, SessionDistribution::exponential(1000.0)),
            0.5);
}

TEST(CalibrationStats, TwoSampleKsBounds) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(two_sample_ks(a, a).distance, 0.0);
  EXPECT_DOUBLE_EQ(two_sample_ks({1, 2, 3}, {100, 200, 300}).distance, 1.0);
  EXPECT_NEAR(two_sample_ks({1, 2, 3, 4}, {3, 4, 5, 6}).distance, 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(two_sample_ks({}, a).distance, 1.0);
}

TEST(CalibrationStats, TwoSampleKsNamesWhereTheGapIsLargest) {
  // F_a - F_b at 1, 2, 3, 4 is 1/4, 1/2, 1/2, 1/2: the largest gap is
  // first reached at 2, where a has half its sample and b none.
  const KsDistance ks = two_sample_ks({4, 3, 2, 1}, {3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(ks.distance, 0.5);
  EXPECT_DOUBLE_EQ(ks.at, 2.0);
  EXPECT_DOUBLE_EQ(ks.cdf_a, 0.5);
  EXPECT_DOUBLE_EQ(ks.cdf_b, 0.0);
  // Samples in the other order swap the two CDFs at the same place.
  const KsDistance swapped = two_sample_ks({3, 4, 5, 6}, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(swapped.distance, 0.5);
  EXPECT_DOUBLE_EQ(swapped.at, 2.0);
  EXPECT_DOUBLE_EQ(swapped.cdf_a, 0.0);
  EXPECT_DOUBLE_EQ(swapped.cdf_b, 0.5);
}

// ---- the malformed-trace corpus --------------------------------------------

/// A minimal two-peer trace; tests mutate pieces of it.
std::string valid_trace(const std::string& peers_json,
                        const std::string& extra = "") {
  return "{\"vantage\": \"go-ipfs\", \"measurement_start_ms\": 0, "
         "\"measurement_end_ms\": 86400000, \"peers\": [" +
         peers_json + "]" + extra + "}";
}

std::string peer_json(const std::string& overrides = "") {
  return "{\"pid\": \"QmPeer\", \"first_seen_ms\": 1000, "
         "\"last_seen_ms\": 2000" +
         overrides + "}";
}

TEST(CalibrationTrace, ParsesAValidTraceAndSynthesizesConnections) {
  const auto dataset = measure::read_dataset(valid_trace(peer_json()));
  ASSERT_TRUE(dataset.has_value()) << dataset.error();
  EXPECT_EQ(dataset->vantage, "go-ipfs");
  EXPECT_EQ(dataset->peer_count(), 1u);
  // No "connections" array: presence approximated from first/last seen.
  ASSERT_EQ(dataset->connection_count(), 1u);
  EXPECT_EQ(dataset->connections()[0].opened, 1000);
  EXPECT_EQ(dataset->connections()[0].closed, 2000);
}

TEST(CalibrationTrace, ParsesExplicitConnections) {
  const auto dataset = measure::read_dataset(valid_trace(
      peer_json(), ", \"connections\": [{\"peer\": 0, \"opened_ms\": 1000, "
                   "\"closed_ms\": 1500, \"direction\": \"inbound\", "
                   "\"reason\": \"none\"}, {\"peer\": 0, \"opened_ms\": 1600, "
                   "\"closed_ms\": 1700, \"direction\": \"outbound\", "
                   "\"reason\": \"remote-trim\"}]"));
  ASSERT_TRUE(dataset.has_value()) << dataset.error();
  ASSERT_EQ(dataset->connection_count(), 2u);
  EXPECT_EQ(dataset->connections()[0].closed, 1500);
  EXPECT_EQ(dataset->connections()[0].direction, p2p::Direction::kInbound);
  EXPECT_EQ(dataset->connections()[0].reason, p2p::CloseReason::kNone);
  EXPECT_EQ(dataset->connections()[1].direction, p2p::Direction::kOutbound);
  EXPECT_EQ(dataset->connections()[1].reason, p2p::CloseReason::kRemoteTrim);
}

TEST(CalibrationTrace, AnEmptyConnectionsArrayStaysEmpty) {
  const auto dataset =
      measure::read_dataset(valid_trace(peer_json(), ", \"connections\": []"));
  ASSERT_TRUE(dataset.has_value()) << dataset.error();
  EXPECT_EQ(dataset->peer_count(), 1u);
  EXPECT_EQ(dataset->connection_count(), 0u);
}

TEST(CalibrationTrace, KeepsProtocolsAndConnectedIps) {
  const auto dataset = measure::read_dataset(valid_trace(peer_json(
      ", \"protocols_ever\": [\"/ipfs/id/1.0.0\", \"/ipfs/kad/1.0.0\"], "
      "\"connected_ips\": [\"9.0.0.1\", \"2001:db8:0:0:0:0:0:1\"]")));
  ASSERT_TRUE(dataset.has_value()) << dataset.error();
  const measure::PeerRecord& peer = dataset->peers()[0];
  ASSERT_EQ(peer.protocols_ever.size(), 2u);
  EXPECT_EQ(dataset->protocol_name(peer.protocols_ever[0]), "/ipfs/id/1.0.0");
  EXPECT_EQ(dataset->protocol_name(peer.protocols_ever[1]), "/ipfs/kad/1.0.0");
  EXPECT_TRUE(peer.protocol_events.empty()) << "no change log is invented";
  ASSERT_EQ(peer.connected_ips.size(), 2u);
  EXPECT_EQ(dataset->ip(peer.connected_ips[0]).to_string(), "9.0.0.1");
  EXPECT_EQ(dataset->ip(peer.connected_ips[1]).to_string(), "2001:db8:0:0:0:0:0:1");
}

TEST(CalibrationTrace, RejectsMissingRequiredFields) {
  const auto no_last_seen = measure::read_dataset(valid_trace(
      "{\"pid\": \"QmPeer\", \"first_seen_ms\": 1000}"));
  ASSERT_FALSE(no_last_seen.has_value());
  EXPECT_EQ(no_last_seen.error(),
            "peers[0].last_seen_ms: missing required field");

  const auto no_vantage = measure::read_dataset(
      "{\"measurement_start_ms\": 0, \"measurement_end_ms\": 1, "
      "\"peers\": [" + peer_json() + "]}");
  ASSERT_FALSE(no_vantage.has_value());
  EXPECT_EQ(no_vantage.error(), "vantage: missing required field");
}

TEST(CalibrationTrace, RejectsNonMonotoneSeenTimes) {
  const auto bad = measure::read_dataset(valid_trace(
      "{\"pid\": \"QmPeer\", \"first_seen_ms\": 2000, \"last_seen_ms\": 1000}"));
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), "peers[0].last_seen_ms: must be >= first_seen_ms");
}

TEST(CalibrationTrace, RejectsNonMonotoneMeasurementWindow) {
  const auto bad = measure::read_dataset(
      "{\"vantage\": \"v\", \"measurement_start_ms\": 10, "
      "\"measurement_end_ms\": 5, \"peers\": [" + peer_json() + "]}");
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), "measurement_end_ms: must be >= measurement_start_ms");
}

TEST(CalibrationTrace, RejectsAnEmptyDataset) {
  const auto empty = measure::read_dataset(valid_trace(""));
  ASSERT_FALSE(empty.has_value());
  EXPECT_NE(empty.error().find("dataset is empty"), std::string::npos);
}

TEST(CalibrationTrace, RejectsUnknownFields) {
  const auto top = measure::read_dataset(
      "{\"vantage\": \"v\", \"measurement_start_ms\": 0, "
      "\"measurement_end_ms\": 1, \"peers\": [" + peer_json() + "], "
      "\"bogus\": 1}");
  ASSERT_FALSE(top.has_value());
  EXPECT_EQ(top.error(), "trace: unknown field 'bogus'");

  const auto nested = measure::read_dataset(valid_trace(peer_json(", \"typo\": true")));
  ASSERT_FALSE(nested.has_value());
  EXPECT_EQ(nested.error(), "peers[0]: unknown field 'typo'");
}

TEST(CalibrationTrace, RejectsDuplicateFields) {
  // A repeated key must not shadow the other, at the root or in a record.
  const auto top = measure::read_dataset(valid_trace(
      peer_json(), ", \"peers\": [" + peer_json() + ", " + peer_json() + "]"));
  ASSERT_FALSE(top.has_value());
  EXPECT_EQ(top.error(), "trace: duplicate field 'peers'");

  const auto nested =
      measure::read_dataset(valid_trace(peer_json(", \"last_seen_ms\": 500")));
  ASSERT_FALSE(nested.has_value());
  EXPECT_EQ(nested.error(), "peers[0]: duplicate field 'last_seen_ms'");
}

TEST(CalibrationTrace, RejectsBadConnections) {
  const auto out_of_range = measure::read_dataset(valid_trace(
      peer_json(),
      ", \"connections\": [{\"peer\": 7, \"opened_ms\": 0, \"closed_ms\": 1}]"));
  ASSERT_FALSE(out_of_range.has_value());
  EXPECT_EQ(out_of_range.error(), "connections[0].peer: index out of range");

  const auto inverted = measure::read_dataset(valid_trace(
      peer_json(),
      ", \"connections\": [{\"peer\": 0, \"opened_ms\": 5, \"closed_ms\": 1}]"));
  ASSERT_FALSE(inverted.has_value());
  EXPECT_EQ(inverted.error(), "connections[0].closed_ms: must be >= opened_ms");

  const std::string connection =
      "{\"peer\": 0, \"opened_ms\": 0, \"closed_ms\": 1";
  const auto direction = measure::read_dataset(valid_trace(
      peer_json(), ", \"connections\": [" + connection + "}, " + connection +
                       ", \"direction\": \"sideways\"}]"));
  ASSERT_FALSE(direction.has_value());
  EXPECT_EQ(direction.error(),
            "connections[1].direction: expected \"inbound\" or \"outbound\"");

  const auto reason = measure::read_dataset(valid_trace(
      peer_json(), ", \"connections\": [" + connection + ", \"reason\": \"Local-Trim\"}]"));
  ASSERT_FALSE(reason.has_value());
  EXPECT_TRUE(reason.error().starts_with("connections[0].reason: expected \"none\", "))
      << reason.error();
}

TEST(CalibrationTrace, RejectsAConnectedIpThatIsNotAnIp) {
  const auto bad = measure::read_dataset(
      valid_trace(peer_json(", \"connected_ips\": [\"9.0.0.1\", \"9.0.0.256\"]")));
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), "peers[0].connected_ips[1]: expected an IP address");

  const auto number =
      measure::read_dataset(valid_trace(peer_json(", \"connected_ips\": [7]")));
  ASSERT_FALSE(number.has_value());
  EXPECT_EQ(number.error(), "peers[0].connected_ips[0]: expected an IP address");
}

TEST(CalibrationTrace, RejectsARepeatedPid) {
  const std::string other =
      "{\"pid\": \"QmOther\", \"first_seen_ms\": 1000, \"last_seen_ms\": 2000}";
  const auto bad = measure::read_dataset(
      valid_trace(peer_json() + ", " + other + ", " + other + ", " + peer_json()));
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), "peers[2].pid: repeats peers[1]");
}

TEST(CalibrationTrace, RejectsMalformedJson) {
  const auto bad = measure::read_dataset("{\"vantage\": ");
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().rfind("trace: ", 0), 0u) << bad.error();
}

// ---- the pipeline on a synthetic trace -------------------------------------

TEST(CalibrationRun, EmitsAValidatingRoundTrippingScenario) {
  // 40 peers x 3 sessions each, exponential-ish spacing, explicit
  // connections.  Small but enough for the fitters.
  std::string peers;
  std::string connections;
  for (int p = 0; p < 40; ++p) {
    if (p > 0) {
      peers += ", ";
      connections += ", ";
    }
    const long base = 1000L * 60 * 60 * p / 4;
    peers += "{\"pid\": \"Qm" + std::to_string(p) +
             "\", \"first_seen_ms\": " + std::to_string(base) +
             ", \"last_seen_ms\": " + std::to_string(base + 20'000'000) + "}";
    for (int s = 0; s < 3; ++s) {
      if (s > 0) connections += ", ";
      const long open = base + s * 8'000'000L;
      const long close = open + 1'000'000L + 700'000L * ((p + s) % 5);
      connections += "{\"peer\": " + std::to_string(p) +
                     ", \"opened_ms\": " + std::to_string(open) +
                     ", \"closed_ms\": " + std::to_string(close) + "}";
    }
  }
  const std::string trace =
      "{\"vantage\": \"synthetic\", \"measurement_start_ms\": 0, "
      "\"measurement_end_ms\": 120000000, \"peers\": [" + peers +
      "], \"connections\": [" + connections + "]}";

  Options options;
  options.verify = false;  // unit scope: scenario assembly only
  const auto result = run(trace, options);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_TRUE(result->groups.contains("all"));
  ASSERT_TRUE(result->scenario.churn.has_value());
  EXPECT_EQ(scenario::ScenarioSpec::validate(result->scenario), std::nullopt);

  // Byte-exact round trip through the scenario layer.
  const std::string emitted = result->scenario.to_json_string();
  const auto reparsed = scenario::ScenarioSpec::from_json(emitted);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error();
  EXPECT_EQ(*reparsed, result->scenario);
  EXPECT_EQ(reparsed->to_json_string(), emitted);

  // The report is well-formed JSON with the documented top-level keys.
  const std::string report = result->report_json();
  const auto parsed_report = common::JsonValue::parse(report);
  ASSERT_TRUE(parsed_report.has_value()) << parsed_report.error();
  for (const std::string_view key :
       {"trace", "fits", "scenario", "closed_loop"}) {
    EXPECT_NE(parsed_report->find(key), nullptr) << key;
  }
}

TEST(CalibrationRun, FailsWhenEverySessionIsCensored) {
  // One connection running to trace end: censored, nothing to fit.
  const std::string trace =
      "{\"vantage\": \"v\", \"measurement_start_ms\": 0, "
      "\"measurement_end_ms\": 10000000, \"peers\": ["
      "{\"pid\": \"Qm0\", \"first_seen_ms\": 0, \"last_seen_ms\": 10000000}"
      "], \"connections\": [{\"peer\": 0, \"opened_ms\": 0, "
      "\"closed_ms\": 10000000}]}";
  const auto result = run(trace, {});
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().find("no completed sessions"), std::string::npos);
}

}  // namespace
}  // namespace ipfs::analysis::calibrate
