// Network-size estimation walkthrough (§V): run a P4-style campaign and
// apply both of the paper's estimators — multiaddress grouping and
// connection-time classification — step by step, showing why raw PID
// counts overestimate the network.
//
//   ./examples/network_size_estimation [scale]     (default scale 0.1)
#include <iostream>

#include "analysis/classification.hpp"
#include "analysis/size_estimation.hpp"
#include "common/parse.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "scenario/campaign.hpp"

int main(int argc, char** argv) {
  using namespace ipfs;
  double scale = 0.1;
  if (argc > 1) {
    const auto parsed = common::parse_finite_double(argv[1]);
    if (!parsed) {
      std::cerr << "network_size_estimation: scale: " << parsed.error() << "\n";
      return 2;
    }
    if (*parsed <= 0.0) {
      std::cerr << "network_size_estimation: scale: must be > 0, got '"
                << argv[1] << "'\n";
      return 2;
    }
    scale = *parsed;
  }

  scenario::CampaignConfig config;
  config.period = scenario::PeriodSpec::P4();
  config.population = scenario::PopulationSpec::test_scale(scale);
  config.seed = 20211210;
  std::cout << "Running P4 (3 days) at scale " << scale << " ...\n";
  auto engine = scenario::CampaignEngine::create(config);
  if (!engine) {
    std::cerr << "invalid campaign config: " << engine.error() << "\n";
    return 1;
  }
  measure::CollectingSink result;
  engine->run(result);
  const measure::Dataset& dataset = *result.find(measure::DatasetRole::kVantage);

  std::cout << "\nStep 0 — the naive answer:\n  " << dataset.peer_count()
            << " PIDs observed; but one participant can run many PIDs (§V).\n";

  const auto grouping = analysis::group_by_multiaddr(dataset);
  std::cout << "\nStep 1 — group by connected IP (§V-A):\n  "
            << grouping.connected_pids << " connected PIDs from "
            << grouping.distinct_ips << " IPs collapse into " << grouping.groups
            << " groups\n  (" << grouping.singleton_groups << " singletons; largest "
            << "group " << grouping.largest_group
            << " PIDs — a rotating-PID operator).\n"
            << "  Estimated network size: ~" << grouping.groups << " peers.\n";

  const auto classes = analysis::classify_peers(dataset);
  common::TextTable table("Step 2 — classify by connection behaviour (§V-B)");
  table.set_header({"Class", "Peers", "DHT servers"});
  for (std::size_t c = 0; c < 4; ++c) {
    table.add_row({std::string(analysis::to_string(static_cast<analysis::PeerClass>(c))),
                   common::with_thousands(classes.peers[c]),
                   common::with_thousands(classes.dht_servers[c])});
  }
  table.print(std::cout);

  const auto report = analysis::estimate_network_size(dataset);
  std::cout << "\nStep 3 — combine (§V conclusion):\n"
            << "  peers by IP grouping:        " << report.estimated_peers_by_ip
            << "\n  PIDs per grouped peer:       "
            << common::format_fixed(report.pids_per_ip_group, 2)
            << "\n  core network (heavy peers):  " << report.core_network_lower_bound
            << "\n  ... of which DHT servers:    " << report.heavy_dht_servers
            << "\n  core user base (clients):    " << report.core_user_base << "\n";

  std::cout << "\nCaveats the paper stresses: NAT and clouds merge distinct peers\n"
               "into one group, rotating PIDs inflate everything, and connection\n"
               "churn != node churn, so light/one-time counts overstate churners.\n";
  return 0;
}
