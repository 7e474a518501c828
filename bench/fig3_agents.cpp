// Regenerates paper Fig. 3: occurrences of agent-version strings (go-ipfs
// grouped by version number, rare agents folded into "other"), plus the
// §IV-B headline counts.
#include <iostream>

#include "analysis/metadata.hpp"
#include "bench_support.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main() {
  using namespace ipfs;
  bench::print_header("FIG. 3 — agent-version occurrences",
                      "Daniel & Tschorsch 2022, Fig. 3 + §IV-B");

  std::cerr << "[fig3] running P4...\n";
  const auto result = bench::run_period(scenario::PeriodSpec::P4());
  const auto& dataset = bench::vantage(result);

  const auto histogram = analysis::agent_histogram(dataset);
  // Paper: agents used by <= 100 PIDs are grouped as "other" (scaled).
  const auto threshold =
      static_cast<std::uint64_t>(100.0 * ipfs::bench::env_scale());
  const auto rows = histogram.top_with_other(threshold);
  std::uint64_t max_count = 0;
  for (const auto& [label, count] : rows) max_count = std::max(max_count, count);

  common::TextTable table("Agent occurrences (log-scale bars)");
  table.set_header({"Agent", "Count", "log bar"});
  for (const auto& [label, count] : rows) {
    table.add_row({label, common::with_thousands(count),
                   common::log_bar(count, max_count, 32)});
  }
  table.print(std::cout);

  const auto summary = analysis::summarize_metadata(dataset);
  std::cout << "\nHeadline counts (paper in parentheses):\n"
            << "  distinct agent strings: "
            << common::with_thousands(summary.distinct_agent_strings) << "  (323)\n"
            << "  distinct go-ipfs versions: "
            << common::with_thousands(summary.go_ipfs_version_count) << "  (263)\n"
            << "  go-ipfs PIDs:   " << common::with_thousands(summary.go_ipfs_pids)
            << "  (50'254)\n"
            << "  hydra PIDs:     " << common::with_thousands(summary.hydra_pids)
            << "  (1'028)\n"
            << "  crawler PIDs:   " << common::with_thousands(summary.crawler_pids)
            << "  (586)\n"
            << "  other agents:   " << common::with_thousands(summary.other_agent_pids)
            << "  (10'926)\n"
            << "  missing agents: " << common::with_thousands(summary.missing_agent_pids)
            << "  (3'059)\n"
            << "  total PIDs:     " << common::with_thousands(summary.total_pids)
            << "  (65'853)\n";
  return 0;
}
