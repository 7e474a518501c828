// Passive measurement campaign: run a scaled-down version of the paper's
// P2 period (go-ipfs server at 18k/20k + two hydra heads, one day) against
// the synthetic December-2021 population, print the headline observations
// and stream the go-ipfs dataset to JSON as it is published — the same
// artefact the paper's instrumented clients produced.
//
//   ./examples/passive_measurement [scale] [out.json] [--connections] [--churn]
//
// Defaults: scale 0.1, dataset written to passive_measurement.json.
// --connections includes the per-connection log in the export (the input
// `ipfs_sim calibrate` needs for gap-threshold session reconstruction);
// --churn animates the population with the default session-churn model so
// the trace contains genuine join/leave dynamics to calibrate against.
//
// This example shows the sink-based campaign API: a JSON export sink and
// an in-memory `measure::CollectingSink` both subscribe to one run through
// a fan-out.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/connection_stats.hpp"
#include "analysis/metadata.hpp"
#include "common/parse.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "measure/sink.hpp"
#include "scenario/campaign.hpp"

int main(int argc, char** argv) {
  using namespace ipfs;

  double scale = 0.1;
  std::string out_path = "passive_measurement.json";
  bool include_connections = false;
  bool with_churn = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connections") {
      include_connections = true;
    } else if (arg == "--churn") {
      with_churn = true;
    } else {
      positional.push_back(arg);
    }
  }
  if (!positional.empty()) {
    const auto parsed = common::parse_finite_double(positional[0]);
    if (!parsed) {
      std::cerr << "passive_measurement: scale: " << parsed.error() << "\n";
      return 2;
    }
    if (*parsed <= 0.0) {
      std::cerr << "passive_measurement: scale: must be > 0, got '"
                << positional[0] << "'\n";
      return 2;
    }
    scale = *parsed;
  }
  if (positional.size() > 1) out_path = positional[1];
  if (positional.size() > 2) {
    std::cerr << "passive_measurement: unexpected argument '" << positional[2]
              << "'\n";
    return 2;
  }

  scenario::CampaignConfig config;
  config.period = scenario::PeriodSpec::P2();
  config.population = scenario::PopulationSpec::test_scale(scale);
  config.seed = 20211213;
  if (with_churn) config.churn = scenario::ChurnSpec{};

  auto engine = scenario::CampaignEngine::create(config);
  if (!engine) {
    std::cerr << "invalid campaign config: " << engine.error() << "\n";
    return 1;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }

  std::cout << "Running period " << config.period.name << " ("
            << common::format_duration(config.period.duration) << ", scale " << scale
            << (with_churn ? ", churned" : "") << ") ...\n";

  // Peer records only by default: the connection log would dominate the
  // file.  --connections keeps it (calibration input).
  measure::JsonExportSink::Options json_options;
  json_options.include_connections = include_connections;
  json_options.role_filter = measure::DatasetRole::kVantage;
  measure::JsonExportSink json_sink(out, json_options);
  measure::CollectingSink result;
  measure::FanOutSink sinks{&json_sink, &result};
  engine->run(sinks);

  std::cout << "Population: " << result.summary().population_size << " peers, "
            << result.summary().events_executed << " simulation events.\n\n";

  auto report = [](const std::string& name, const measure::Dataset& dataset) {
    const auto stats = analysis::compute_connection_stats(dataset);
    std::cout << name << ": " << dataset.peer_count() << " PIDs, "
              << dataset.connection_count() << " connections"
              << " (All avg " << common::format_fixed(stats.all.average_s, 1)
              << " s, median " << common::format_fixed(stats.all.median_s, 1)
              << " s; Peer avg " << common::format_fixed(stats.peer.average_s, 1)
              << " s)\n";
  };
  const measure::Dataset& go_ipfs = *result.find(measure::DatasetRole::kVantage);
  report("go-ipfs    ", go_ipfs);
  std::size_t h = 0;
  for (const auto& [role, dataset] : result.datasets()) {
    if (role == measure::DatasetRole::kHydraHead) {
      report("Hydra H" + std::to_string(h++) + "   ", dataset);
    }
  }
  report("Hydra union", *result.find(measure::DatasetRole::kHydraUnion));

  const auto summary = analysis::summarize_metadata(go_ipfs);
  std::cout << "\nMetadata seen by go-ipfs: " << summary.distinct_agent_strings
            << " agent strings, " << summary.distinct_protocols << " protocols, "
            << summary.kad_supporters << " DHT servers, " << summary.missing_agent_pids
            << " PIDs without version string.\n";

  std::cout << "\ngo-ipfs peer records streamed to " << out_path << " ("
            << "like the paper's periodic JSON dumps, §III-A).\n";
  return 0;
}
