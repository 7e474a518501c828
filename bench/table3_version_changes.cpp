// Regenerates paper Table III: go-ipfs agent-version changes over the
// measurement (upgrades / downgrades / commit-changes; main/dirty
// transitions), plus the §IV-B role-flapping counts.
#include <iostream>

#include "analysis/metadata.hpp"
#include "bench_support.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "p2p/protocols.hpp"

int main() {
  using namespace ipfs;
  bench::print_header("TABLE III — go-ipfs version changes",
                      "Daniel & Tschorsch 2022, Table III + §IV-B");

  std::cerr << "[table3] running P4...\n";
  const auto result = bench::run_period(scenario::PeriodSpec::P4());
  const auto& dataset = bench::vantage(result);
  const auto counts = analysis::count_version_changes(dataset);

  common::TextTable table("Version changes (paper values in parentheses)");
  table.set_header({"Version", "Count", "Type", "Count"});
  table.add_row({"Upgrade (218)", common::with_thousands(counts.upgrades),
                 "main-main (291)", common::with_thousands(counts.main_to_main)});
  table.add_row({"Downgrade (107)", common::with_thousands(counts.downgrades),
                 "dirty-main (9)", common::with_thousands(counts.dirty_to_main)});
  table.add_row({"Change (205)", common::with_thousands(counts.changes),
                 "main-dirty (5)", common::with_thousands(counts.main_to_dirty)});
  table.add_row({"", "", "dirty-dirty (225)",
                 common::with_thousands(counts.dirty_to_dirty)});
  table.add_rule();
  table.add_row({"Total (530)", common::with_thousands(counts.total()), "", ""});
  table.print(std::cout);

  std::cout << "\nNon-go-ipfs -> go-ipfs agent switches: "
            << common::with_thousands(counts.into_go_ipfs) << "  (paper: once)\n";

  const auto kad = analysis::protocol_flapping(dataset, p2p::protocols::kKad);
  const auto autonat = analysis::protocol_flapping(dataset, p2p::protocols::kAutonat);
  std::cout << "\nRole flapping (§IV-B):\n"
            << "  /ipfs/kad/1.0.0:        " << common::with_thousands(kad.peers)
            << " peers, " << common::with_thousands(kad.events)
            << " changes  (2'481 / 68'396)\n"
            << "  /libp2p/autonat/1.0.0:  " << common::with_thousands(autonat.peers)
            << " peers, " << common::with_thousands(autonat.events)
            << " changes  (3'603 / 86'651)\n";
  return 0;
}
