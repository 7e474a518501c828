// Churn study (§IV-A, §VI): demonstrate that IPFS connection churn is
// driven by the connection manager, not by node churn.  Two campaigns over
// the same population — default watermarks vs high watermarks — and a
// breakdown of *why* connections closed in each.  A third campaign then
// turns on *session-level* node churn (scenario::ChurnModel, DESIGN.md
// §10) and reconstructs what the vantage observed: sessions, their length
// CDF, and observed-vs-true network size.
//
//   ./examples/churn_study [scale]     (default scale 0.1)
#include <iostream>

#include "analysis/churn_stats.hpp"
#include "analysis/connection_stats.hpp"
#include "common/parse.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "measure/sink.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"

namespace {

using namespace ipfs;

/// Run `config` to completion, collecting everything it publishes.
measure::CollectingSink run(scenario::CampaignConfig config) {
  auto engine = scenario::CampaignEngine::create(std::move(config));
  if (!engine) {
    std::cerr << "invalid campaign config: " << engine.error() << "\n";
    std::exit(1);
  }
  measure::CollectingSink sink;
  engine->run(sink);
  return sink;
}

/// One day of P4 without the crawler, at the given watermarks.
scenario::CampaignConfig watermark_config(double scale, int low, int high) {
  scenario::CampaignConfig config;
  config.period = scenario::PeriodSpec::P4();
  config.period.duration = common::kDay;
  config.period.go_low_water = low;
  config.period.go_high_water = high;
  config.population = scenario::PopulationSpec::test_scale(scale);
  config.seed = 20211206;
  config.enable_crawler = false;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.1;
  if (argc > 1) {
    const auto parsed = common::parse_finite_double(argv[1]);
    if (!parsed) {
      std::cerr << "churn_study: scale: " << parsed.error() << "\n";
      return 2;
    }
    if (*parsed <= 0.0) {
      std::cerr << "churn_study: scale: must be > 0, got '" << argv[1]
                << "'\n";
      return 2;
    }
    scale = *parsed;
  }
  // Scale the paper's default 600/900 watermarks with the population.
  const int low = std::max(4, static_cast<int>(600 * scale));
  const int high = std::max(6, static_cast<int>(900 * scale));

  std::cout << "Population scale " << scale << "; default watermarks " << low << "/"
            << high << " vs high watermarks.\n";

  common::TextTable table("Why connections closed (1-day campaigns)");
  table.set_header({"Config", "Conns", "own trim", "remote trim", "query done",
                    "node left", "All avg"});
  for (const bool high_watermarks : {false, true}) {
    const auto result = run(high_watermarks ? watermark_config(scale, 18000, 20000)
                                            : watermark_config(scale, low, high));
    const auto& dataset = *result.find(measure::DatasetRole::kVantage);
    const auto reasons = analysis::compute_close_reasons(dataset);
    const auto stats = analysis::compute_connection_stats(dataset);
    table.add_row({high_watermarks ? "18k/20k (P2-style)" : "default-style",
                   common::with_thousands(stats.all.count),
                   common::with_thousands(reasons.local_trim),
                   common::with_thousands(reasons.remote_trim),
                   common::with_thousands(reasons.remote_close),
                   common::with_thousands(reasons.peer_offline),
                   common::format_fixed(stats.all.average_s, 1) + " s"});
  }
  table.print(std::cout);

  std::cout << "\nReading: with default-style watermarks the vantage itself closes\n"
               "the bulk of connections ('own trim'); raising the watermarks\n"
               "shifts closes to the remote side and to genuine node departures,\n"
               "and the average duration grows by an order of magnitude.  This is\n"
               "the paper's §VI recommendation to raise DHT-server defaults.\n";

  // ---- session-level node churn (DESIGN.md §10) -----------------------------

  scenario::ScenarioSpec churned = *scenario::ScenarioSpec::builtin("churn-baseline");
  churned.population.scale = scale;
  const auto result = run(churned.to_campaign_config());
  const auto sessions =
      analysis::reconstruct_sessions(*result.find(measure::DatasetRole::kVantage));
  const auto stats = analysis::compute_churn_stats(sessions);

  std::cout << "\nNow with the 'churn-baseline' lifecycle model engaged (every\n"
               "category joins and leaves; the vantage sees real session traces):\n\n";
  std::cout << "  sessions observed        " << common::with_thousands(
                   static_cast<std::uint64_t>(stats.session_count))
            << " across " << common::with_thousands(
                   static_cast<std::uint64_t>(stats.peers)) << " peers ("
            << common::with_thousands(
                   static_cast<std::uint64_t>(stats.multi_session_peers))
            << " left and returned)\n";
  std::cout << "  session length           mean "
            << common::format_fixed(stats.mean_session_s / 60.0, 1)
            << " min, median "
            << common::format_fixed(stats.median_session_s / 60.0, 1) << " min\n";

  const auto series = analysis::observed_vs_true(sessions, result.population());
  common::MinMaxBand observed_share;
  common::MinMaxBand online_share;
  for (const auto& sample : series) {
    observed_share.add(sample.observed, sample.observed);
    online_share.add(sample.true_online, sample.true_online);
  }
  if (!series.empty()) {
    std::cout << "  observed network size    " << observed_share.low() << ".."
              << observed_share.high() << " peers in-session at the vantage\n"
              << "  true online population   " << online_share.low() << ".."
              << online_share.high() << " of " << series.front().true_total
              << " total — the passive vantage always sees less than exists\n";
  }
  return 0;
}
