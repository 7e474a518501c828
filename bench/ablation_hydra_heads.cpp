// Ablation: hydra head-count sweep.
//
// §III-C argues that a hydra with more heads covers more of the keyspace
// ("two measurement nodes with strategically placed keys should be
// sufficient to cover almost the whole network").  This bench sweeps the
// head count over one-day campaigns and reports the union horizon.
#include <iostream>

#include "bench_support.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main() {
  using namespace ipfs;
  bench::print_header("ABLATION — hydra head-count sweep (1-day campaigns)",
                      "Daniel & Tschorsch 2022, §III-C");

  common::TextTable table("Union horizon vs head count");
  table.set_header({"Heads", "Union PIDs", "Per-head (min..max)", "go-ipfs PIDs"});
  for (const int heads : {1, 2, 3, 4}) {
    std::cerr << "[ablation-hydra] heads=" << heads << "...\n";
    auto period = scenario::PeriodSpec::P1();
    period.name = "sweep";
    period.duration = common::kDay;
    period.hydra_heads = heads;
    auto config = bench::make_config(period);
    config.enable_crawler = false;
    const auto result = bench::run_campaign(std::move(config));

    common::MinMaxBand head_band;
    for (const auto& [role, head] : result.datasets()) {
      if (role == measure::DatasetRole::kHydraHead) {
        head_band.add(head.peer_count(), head.peer_count());
      }
    }
    table.add_row({std::to_string(heads),
                   common::with_thousands(
                       result.find(measure::DatasetRole::kHydraUnion)->peer_count()),
                   common::with_thousands(head_band.low()) + " .. " +
                       common::with_thousands(head_band.high()),
                   common::with_thousands(bench::vantage(result).peer_count())});
  }
  table.print(std::cout);

  std::cout << "\nExpected shape: the union grows with the head count with\n"
               "diminishing returns — two heads already approach the crawler's\n"
               "coverage in Fig. 2, matching the paper's vantage-point claim.\n";
  return 0;
}
