// Regenerates paper §V-A: the multiaddress-based network-size estimator —
// grouping PIDs by connected IP address, with the paper's headline numbers
// and the hydra / rotating-PID case studies.
#include <iostream>

#include "analysis/size_estimation.hpp"
#include "bench_support.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main() {
  using namespace ipfs;
  bench::print_header("§V-A — multiaddress grouping (P4)",
                      "Daniel & Tschorsch 2022, §V-A");

  std::cerr << "[sec5a] running P4...\n";
  const auto result = bench::run_period(scenario::PeriodSpec::P4());
  const auto grouping = analysis::group_by_multiaddr(bench::vantage(result));

  common::TextTable table("Grouping PIDs by connected IP (paper values in parentheses)");
  table.set_header({"Metric", "Measured", "Paper"});
  table.add_row({"known PIDs", common::with_thousands(grouping.total_pids), "65'853"});
  table.add_row({"PIDs with connections", common::with_thousands(grouping.connected_pids),
                 "62'204"});
  table.add_row({"distinct IP addresses", common::with_thousands(grouping.distinct_ips),
                 "56'536"});
  table.add_row({"groups", common::with_thousands(grouping.groups), "47'516"});
  table.add_row({"single-PID groups", common::with_thousands(grouping.singleton_groups),
                 "44'301"});
  table.add_row({"PIDs with unique IPs", common::with_thousands(grouping.unique_ip_pids),
                 "40'193"});
  table.add_row({"largest group (rotating PIDs)",
                 common::with_thousands(grouping.largest_group), "2'156"});
  table.print(std::cout);

  std::cout << "\nLargest group sizes: ";
  for (std::size_t i = 0; i < std::min<std::size_t>(grouping.group_sizes.size(), 10);
       ++i) {
    std::cout << common::with_thousands(grouping.group_sizes[i]) << " ";
  }
  std::cout << "\n(paper: one 2'156-PID group; hydra's 1'026 heads on 11 IPs —\n"
               " 9x100, one 98, one 28 — plus two heads sharing an IP with two\n"
               " go-ipfs nodes; NAT households and small clouds fill the rest)\n";

  std::cout << "\n§V-A flaw the paper demonstrates: groups ("
            << common::with_thousands(grouping.groups)
            << ") are still ~3x the simultaneous connections, and hydra-style\n"
               "deployments collapse many active peers into a single group.\n";
  return 0;
}
