// Regenerates paper Fig. 2: number of PIDs seen per measurement period by
// the passive vantages (total + DHT servers) versus the active crawler's
// min/max band.
#include <iostream>

#include "bench_support.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

using namespace ipfs;

std::pair<std::uint64_t, std::uint64_t> pid_counts(const measure::Dataset& dataset) {
  std::uint64_t servers = 0;
  for (const auto& peer : dataset.peers()) {
    if (peer.ever_dht_server) ++servers;
  }
  return {dataset.peer_count(), servers};
}

}  // namespace

int main() {
  using namespace ipfs;
  bench::print_header("FIG. 2 — passive vs active measurement horizon",
                      "Daniel & Tschorsch 2022, Fig. 2 + §III-C");

  common::TextTable table("PIDs per period (total / DHT-server)");
  table.set_header({"Period", "go-ipfs", "Hydra union", "Crawler min-max (reached..learned)"});

  for (const auto& period : scenario::PeriodSpec::table1()) {
    std::cerr << "[fig2] running " << period.name << "...\n";
    const auto result = bench::run_period(period);
    std::string go = "-";
    if (const auto* go_ipfs = result.find(measure::DatasetRole::kVantage)) {
      const auto [total, servers] = pid_counts(*go_ipfs);
      go = common::with_thousands(total) + " / " + common::with_thousands(servers);
    }
    std::string hydra = "-";
    if (const auto* hydra_union = result.find(measure::DatasetRole::kHydraUnion)) {
      const auto [total, servers] = pid_counts(*hydra_union);
      hydra = common::with_thousands(total) + " / " + common::with_thousands(servers);
    }
    const auto [crawl_min, crawl_max] = measure::crawler_min_max(result.crawls());
    table.add_row({period.name, go, hydra,
                   common::with_thousands(static_cast<std::uint64_t>(crawl_min)) +
                       " .. " +
                       common::with_thousands(static_cast<std::uint64_t>(crawl_max))});
  }
  table.print(std::cout);

  std::cout << "\nPaper Fig. 2 shape: 40k-65k total PIDs for the passive nodes;\n"
               "multi-day periods see more DHT servers than any single crawl;\n"
               "hydra union >= go-ipfs; crawler reaches only DHT servers.\n";
  return 0;
}
