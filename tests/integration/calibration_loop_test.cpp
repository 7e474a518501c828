// Closed-loop calibration on the checked-in reference trace
// (scenarios/traces/passive_measurement_small.json): the full pipeline
// must fit every peer group, emit a scenario that validates and
// round-trips byte-exactly, pass the closed-loop KS check against a
// re-simulation, and produce identical bytes on every run.  A campaign's
// own multi-document export must read back as the dataset it exported,
// protocols and connected IPs included.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/calibration.hpp"
#include "common/sim_time.hpp"
#include "measure/dataset.hpp"
#include "measure/sink.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"

namespace ipfs::analysis::calibrate {
namespace {

constexpr const char* kTracePath =
    IPFS_SOURCE_DIR "/scenarios/traces/passive_measurement_small.json";

/// The peer's protocols_ever as names and its connected IPs as values,
/// each in value order: ids differ between datasets, these do not.
std::vector<std::string> protocol_names(const measure::Dataset& dataset,
                                        const measure::PeerRecord& peer) {
  std::vector<std::string> names;
  for (const measure::ProtocolId id : peer.protocols_ever) {
    names.push_back(dataset.protocol_name(id));
  }
  std::ranges::sort(names);
  return names;
}

std::vector<p2p::IpAddress> connected_ips(const measure::Dataset& dataset,
                                          const measure::PeerRecord& peer) {
  std::vector<p2p::IpAddress> ips;
  for (const measure::IpId id : peer.connected_ips) ips.push_back(dataset.ip(id));
  std::ranges::sort(ips);
  return ips;
}

std::string read_trace() {
  std::ifstream in(kTracePath, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing reference trace " << kTracePath;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CalibrationLoop, ReferenceTraceCalibratesEndToEnd) {
  const std::string trace = read_trace();
  ASSERT_FALSE(trace.empty());

  const auto result = run(trace);
  ASSERT_TRUE(result.has_value()) << result.error();

  // The trace has a real measurement window, so sessions still open at
  // its end must have been censored rather than fitted as short.
  EXPECT_GT(result->measured.session_count, 100u);
  EXPECT_GT(result->measured.censored_sessions, 0u);
  EXPECT_LT(result->measured.censored_sessions, result->measured.session_count);

  // Every documented peer group fits both distributions.
  for (const std::string group : {"all", "dht_servers", "clients"}) {
    ASSERT_TRUE(result->groups.contains(group)) << group;
    const GroupFit& fit = result->groups.at(group);
    EXPECT_TRUE(fit.session.any_ok()) << group;
    EXPECT_TRUE(fit.gap.any_ok()) << group;
    EXPECT_LE(fit.session.best().ks, 0.2) << group;
  }

  // The closed loop: re-simulating the emitted scenario reproduces the
  // measured session-length CDF within the acceptance threshold.
  EXPECT_TRUE(result->loop.ran);
  EXPECT_GT(result->loop.simulated_sessions, 0u);
  EXPECT_LE(result->loop.ks, result->loop.threshold);
  EXPECT_TRUE(result->loop.pass);
}

TEST(CalibrationLoop, EmittedScenarioValidatesAndRoundTrips) {
  const auto result = run(read_trace());
  ASSERT_TRUE(result.has_value()) << result.error();

  const scenario::ScenarioSpec& spec = result->scenario;
  EXPECT_EQ(spec.name, "calibrated");
  ASSERT_TRUE(spec.churn.has_value());
  EXPECT_FALSE(spec.churn->categories.empty());
  EXPECT_EQ(scenario::ScenarioSpec::validate(spec), std::nullopt);

  // Byte-exact round trip through the strict scenario layer.
  const std::string emitted = spec.to_json_string();
  const auto reparsed = scenario::ScenarioSpec::from_json(emitted);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error();
  EXPECT_EQ(*reparsed, spec);
  EXPECT_EQ(reparsed->to_json_string(), emitted);
}

TEST(CalibrationLoop, PipelineIsByteDeterministic) {
  const std::string trace = read_trace();
  const auto first = run(trace);
  const auto second = run(trace);
  ASSERT_TRUE(first.has_value()) << first.error();
  ASSERT_TRUE(second.has_value()) << second.error();
  EXPECT_EQ(first->scenario.to_json_string(), second->scenario.to_json_string());
  EXPECT_EQ(first->report_json(), second->report_json());
  EXPECT_EQ(first->loop.ks, second->loop.ks);
}

TEST(CalibrationLoop, GapOptionChangesTheCensoringHorizon) {
  const std::string trace = read_trace();
  Options wide;
  wide.max_gap = 2 * common::kHour;
  wide.verify = false;
  const auto narrow = run(trace, {.verify = false});
  const auto merged = run(trace, wide);
  ASSERT_TRUE(narrow.has_value()) << narrow.error();
  ASSERT_TRUE(merged.has_value()) << merged.error();
  // A wider gap threshold merges sessions: strictly fewer of them.
  EXPECT_LT(merged->measured.session_count, narrow->measured.session_count);
}

TEST(CalibrationLoop, CampaignExportReadsBackAsItsDataset) {
  // A churned run exported with connections: the vantage dataset document,
  // then a population_samples document the reader must skip.
  scenario::ScenarioSpec spec = *scenario::ScenarioSpec::builtin("churn-baseline");
  spec.population.scale = 0.002;
  measure::CollectingSink collected;
  std::ostringstream out;
  {
    measure::JsonExportSink exported(
        out, {.include_connections = true,
              .role_filter = measure::DatasetRole::kVantage});
    measure::FanOutSink both{&collected, &exported};
    auto engine = scenario::CampaignEngine::create(spec.to_campaign_config());
    ASSERT_TRUE(engine.has_value()) << engine.error();
    engine->run(both);
  }
  const std::string text = out.str();
  ASSERT_NE(text.find("\"population_samples\""), std::string::npos);
  const measure::Dataset* expected = collected.find(measure::DatasetRole::kVantage);
  ASSERT_NE(expected, nullptr);
  ASSERT_GT(expected->connection_count(), 0u);

  const auto parsed = measure::read_dataset(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_EQ(parsed->vantage, expected->vantage);
  EXPECT_EQ(parsed->measurement_start, expected->measurement_start);
  EXPECT_EQ(parsed->measurement_end, expected->measurement_end);
  ASSERT_EQ(parsed->peer_count(), expected->peer_count());
  std::size_t with_protocols = 0;
  std::size_t with_ips = 0;
  for (measure::PeerIndex i = 0; i < expected->peer_count(); ++i) {
    const measure::PeerRecord& want = expected->record(i);
    const measure::PeerRecord& got = parsed->record(i);
    EXPECT_EQ(got.first_seen, want.first_seen) << "peer " << i;
    EXPECT_EQ(got.last_seen, want.last_seen) << "peer " << i;
    EXPECT_EQ(got.ever_dht_server, want.ever_dht_server) << "peer " << i;
    ASSERT_EQ(got.agent_history.size(), want.agent_history.size()) << "peer " << i;
    for (std::size_t e = 0; e < want.agent_history.size(); ++e) {
      EXPECT_EQ(got.agent_history[e].at, want.agent_history[e].at);
      EXPECT_EQ(parsed->agent_name(got.agent_history[e].agent),
                expected->agent_name(want.agent_history[e].agent));
    }
    EXPECT_EQ(protocol_names(*parsed, got), protocol_names(*expected, want))
        << "peer " << i;
    EXPECT_EQ(connected_ips(*parsed, got), connected_ips(*expected, want))
        << "peer " << i;
    EXPECT_TRUE(got.protocol_events.empty()) << "peer " << i;
    with_protocols += want.protocols_ever.empty() ? 0 : 1;
    with_ips += want.connected_ips.empty() ? 0 : 1;
  }
  EXPECT_GT(with_protocols, 0u);
  EXPECT_GT(with_ips, 0u);
  ASSERT_EQ(parsed->connection_count(), expected->connection_count());
  for (std::size_t c = 0; c < expected->connection_count(); ++c) {
    const measure::ConnRecord& want = expected->connections()[c];
    const measure::ConnRecord& got = parsed->connections()[c];
    EXPECT_EQ(got.peer, want.peer) << "connection " << c;
    EXPECT_EQ(got.opened, want.opened) << "connection " << c;
    EXPECT_EQ(got.closed, want.closed) << "connection " << c;
    EXPECT_EQ(got.direction, want.direction) << "connection " << c;
    EXPECT_EQ(got.reason, want.reason) << "connection " << c;
  }
}

}  // namespace
}  // namespace ipfs::analysis::calibrate
