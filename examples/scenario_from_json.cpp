// Declarative scenarios: define a campaign as a JSON document, parse it
// into a `scenario::ScenarioSpec`, and run it — the same path the
// `ipfs_sim` CLI drives from scenario files (docs/SCENARIOS.md).
//
//   ./examples/scenario_from_json
//
// The embedded document below is a scaled-down variant of the paper's P1
// period with one behavioural override: crawler agents sweep three times
// as fast.  Everything not specified inherits the calibrated defaults, so
// a scenario file only states what makes it different.
#include <algorithm>
#include <iostream>
#include <sstream>

#include "measure/sink.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"

int main() {
  using namespace ipfs;

  // 1. A scenario as data.  `ipfs_sim run file.json` does exactly this
  //    with the file's contents.
  static constexpr const char* kScenario = R"({
    "name": "p1-fast-crawlers",
    "description": "P1 at 1% scale with 3x crawler sweep rate",
    "period": {
      "name": "P1",
      "duration_ms": 86400000,
      "go_ipfs": {"mode": "server", "low_water": 2000, "high_water": 4000},
      "hydra": {"heads": 2, "low_water": 2000, "high_water": 4000}
    },
    "population": {
      "scale": 0.01,
      "categories": {
        "crawler": {"queries_per_hour": 16.5}
      }
    },
    "campaign": {"seed": 7}
  })";

  // 2. Parse + validate.  Errors name the offending field, e.g.
  //    "population.categories.crawler.queries_per_hour: expected a number".
  auto spec = scenario::ScenarioSpec::from_json(kScenario);
  if (!spec) {
    std::cerr << "invalid scenario: " << spec.error() << "\n";
    return 1;
  }
  std::cout << "scenario '" << spec->name << "': " << spec->description << "\n";

  // 3. Run it through the validating engine factory.
  auto engine = scenario::CampaignEngine::create(spec->to_campaign_config());
  if (!engine) {
    std::cerr << "cannot run: " << engine.error() << "\n";
    return 1;
  }
  measure::CollectingSink result;
  engine->run(result);

  std::cout << "population: " << result.summary().population_size
            << " remote peers\n";
  if (const auto* go_ipfs = result.find(measure::DatasetRole::kVantage)) {
    std::cout << "go-ipfs vantage: " << go_ipfs->peer_count() << " peers, "
              << go_ipfs->connection_count() << " connections\n";
  }
  if (const auto* hydra_union = result.find(measure::DatasetRole::kHydraUnion)) {
    const auto heads = std::ranges::count(result.datasets(),
                                          measure::DatasetRole::kHydraHead,
                                          &measure::CollectingSink::Entry::role);
    std::cout << "hydra union:     " << hydra_union->peer_count()
              << " peers across " << heads << " heads\n";
  }
  const auto [crawl_min, crawl_max] = measure::crawler_min_max(result.crawls());
  std::cout << "crawler band:    " << crawl_min << " - " << crawl_max
            << " reached servers per sweep\n";

  // 4. The round trip: every spec serialises back to a self-documenting
  //    document with all defaults made explicit — handy as a template.
  std::cout << "\nFull spec with defaults expanded "
            << "(save as my_scenario.json and edit):\n"
            << spec->to_json_string();
  return 0;
}
