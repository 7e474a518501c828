// Regenerates paper Fig. 7: CDFs of (left) the maximum connection duration
// per PID and (right) the number of connections per PID, each for all PIDs
// and split into DHT servers / DHT clients.
#include <iostream>

#include "analysis/classification.hpp"
#include "bench_support.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

using namespace ipfs;

void print_cdf(const std::string& title, const common::Cdf& all,
               const common::Cdf& servers, const common::Cdf& clients,
               const std::vector<double>& anchors, const char* unit) {
  common::TextTable table(title);
  table.set_header({std::string("x (") + unit + ")", "all", "DHT-Server", "DHT-Client"});
  for (const double anchor : anchors) {
    table.add_row({common::format_fixed(anchor, 0),
                   common::format_percent(all.fraction_at_most(anchor)),
                   common::format_percent(servers.fraction_at_most(anchor)),
                   common::format_percent(clients.fraction_at_most(anchor))});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  using namespace ipfs;
  bench::print_header("FIG. 7 — connection-duration and connection-count CDFs (P4)",
                      "Daniel & Tschorsch 2022, Fig. 7 + §V-B");

  std::cerr << "[fig7] running P4...\n";
  const auto result = bench::run_period(scenario::PeriodSpec::P4());
  const auto& dataset = bench::vantage(result);

  const auto all = analysis::connection_cdfs(dataset, -1);
  const auto servers = analysis::connection_cdfs(dataset, 1);
  const auto clients = analysis::connection_cdfs(dataset, 0);

  print_cdf("CDF of max connection duration per PID (30 s groups)",
            all.max_duration_s, servers.max_duration_s, clients.max_duration_s,
            {30, 60, 300, 900, 3600, 7200, 43200, 86400, 259200}, "s");
  print_cdf("CDF of number of connections per PID", all.connection_count,
            servers.connection_count, clients.connection_count,
            {1, 2, 3, 5, 10, 15, 50, 200}, "conns");

  std::cout << "\nPaper anchors: ~53 % below 1 h max duration; ~16 % above 24 h;\n"
            << "~50 % with one connection; ~10 % with more than 15.\n"
            << "Measured: "
            << common::format_percent(all.max_duration_s.fraction_at_most(3600.0))
            << " below 1 h; "
            << common::format_percent(
                   1.0 - all.max_duration_s.fraction_at_most(86400.0))
            << " above 24 h; "
            << common::format_percent(all.connection_count.fraction_at_most(1.0))
            << " with one connection; "
            << common::format_percent(
                   1.0 - all.connection_count.fraction_at_most(15.0))
            << " with more than 15.\n";
  return 0;
}
