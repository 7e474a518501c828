// Regenerates paper Table IV: connection-time classification of the P4
// peers into heavy / normal / light / one-time, with DHT-server splits,
// and the §V-B core-network bound.
#include <iostream>

#include "analysis/classification.hpp"
#include "bench_support.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main() {
  using namespace ipfs;
  bench::print_header("TABLE IV — peer classification (P4)",
                      "Daniel & Tschorsch 2022, Table IV + §V-B");

  std::cerr << "[table4] running P4...\n";
  const auto result = bench::run_period(scenario::PeriodSpec::P4());
  const auto counts = analysis::classify_peers(bench::vantage(result));

  common::TextTable table("Classification (paper values in parentheses)");
  table.set_header({"Class", "Time", "# Conn.", "Peers", "DHT-Server"});
  const char* criteria_time[] = {"> 24 h", "> 2 h", "<= 2 h", "< 2 h"};
  const char* criteria_conn[] = {"-", "-", ">= 3", "< 3"};
  const char* paper_peers[] = {"(10'540)", "(15'895)", "(16'880)", "(18'889)"};
  const char* paper_servers[] = {"(1'449)", "(1'420)", "(9'755)", "(6'108)"};
  for (std::size_t c = 0; c < 4; ++c) {
    table.add_row({std::string(analysis::to_string(static_cast<analysis::PeerClass>(c))),
                   criteria_time[c], criteria_conn[c],
                   common::with_thousands(counts.peers[c]) + " " + paper_peers[c],
                   common::with_thousands(counts.dht_servers[c]) + " " +
                       paper_servers[c]});
  }
  table.add_rule();
  table.add_row({"Total", "", "", common::with_thousands(counts.total_peers()) +
                                      " (62'204)",
                 ""});
  table.print(std::cout);

  const auto heavy = static_cast<std::size_t>(analysis::PeerClass::kHeavy);
  std::cout << "\n§V-B conclusions:\n  heavy DHT servers: "
            << common::with_thousands(counts.dht_servers[heavy])
            << "  (paper ~1.5k)\n  heavy DHT clients (core user base): "
            << common::with_thousands(counts.peers[heavy] - counts.dht_servers[heavy])
            << "  (paper ~9k)\n  core network lower bound: "
            << common::with_thousands(counts.peers[heavy]) << "  (paper >= 10k)\n";
  return 0;
}
