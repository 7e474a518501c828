// Regenerates paper Fig. 4: occurrences of announced protocols (protocols
// supported by few peers fold into "other"), plus §IV-B's protocol-count
// observations and anomaly fingerprints.
#include <iostream>

#include "analysis/metadata.hpp"
#include "bench_support.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "p2p/protocols.hpp"

int main() {
  using namespace ipfs;
  bench::print_header("FIG. 4 — protocol occurrences",
                      "Daniel & Tschorsch 2022, Fig. 4 + §IV-B");

  std::cerr << "[fig4] running P4...\n";
  const auto result = bench::run_period(scenario::PeriodSpec::P4());
  const auto& dataset = bench::vantage(result);

  const auto histogram = analysis::protocol_histogram(dataset);
  const auto threshold =
      static_cast<std::uint64_t>(300.0 * ipfs::bench::env_scale());
  const auto rows = histogram.top_with_other(threshold);
  std::uint64_t max_count = 0;
  for (const auto& [label, count] : rows) max_count = std::max(max_count, count);

  common::TextTable table("Protocol occurrences (log-scale bars)");
  table.set_header({"Protocol", "Count", "log bar"});
  for (const auto& [label, count] : rows) {
    table.add_row({label, common::with_thousands(count),
                   common::log_bar(count, max_count, 32)});
  }
  table.print(std::cout);

  const auto summary = analysis::summarize_metadata(dataset);
  const auto anomalies = analysis::find_anomalies(dataset);
  std::cout << "\nHeadline counts (paper in parentheses):\n"
            << "  distinct protocols: "
            << common::with_thousands(summary.distinct_protocols) << "  (101)\n"
            << "  /ipfs/bitswap supporters: "
            << common::with_thousands(summary.bitswap_supporters) << "  (44'463)\n"
            << "  /ipfs/kad supporters (DHT servers): "
            << common::with_thousands(summary.kad_supporters) << "  (18'845)\n"
            << "\nAnomalies (§IV-B):\n"
            << "  go-ipfs agents without bitswap: "
            << common::with_thousands(anomalies.go_ipfs_without_bitswap)
            << "  (7'498 v0.8.0 clients)\n"
            << "  ... of which announce /sbptp/1.0.0 (storm): "
            << common::with_thousands(anomalies.go_ipfs_with_sbptp) << "\n"
            << "  overt storm agents: " << common::with_thousands(anomalies.storm_agents)
            << "\n  go-ethereum agents: "
            << common::with_thousands(anomalies.ethereum_agents) << "  (1)\n";
  return 0;
}
