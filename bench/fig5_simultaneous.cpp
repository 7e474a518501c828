// Regenerates paper Fig. 5: simultaneous peer connections over the first
// 24 h for P0–P3 (go-ipfs and hydra heads), printed as a down-sampled
// series plus summary statistics.
#include <iostream>

#include "analysis/timeseries.hpp"
#include "bench_support.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

using namespace ipfs;

void print_series(const std::string& label, const measure::Dataset& dataset) {
  const auto series = analysis::simultaneous_connections(
      dataset, 30 * common::kMinute, 24 * common::kHour);
  const auto summary = analysis::summarize_series(series);
  std::cout << "  " << label << ": peak=" << common::with_thousands(summary.peak)
            << " mean=" << common::format_fixed(summary.mean, 0)
            << " final=" << common::with_thousands(summary.final_value) << "\n    ";
  for (std::size_t i = 0; i < series.size(); i += 4) {
    std::cout << series[i].count << " ";
  }
  std::cout << "(every 2 h)\n";
}

}  // namespace

int main() {
  using namespace ipfs;
  bench::print_header("FIG. 5 — simultaneous peer connections (first 24 h)",
                      "Daniel & Tschorsch 2022, Fig. 5 + §V");

  const std::vector<scenario::PeriodSpec> periods{
      scenario::PeriodSpec::P0(), scenario::PeriodSpec::P1(),
      scenario::PeriodSpec::P2(), scenario::PeriodSpec::P3()};
  for (const auto& period : periods) {
    std::cerr << "[fig5] running " << period.name << "...\n";
    const auto result = bench::run_period(period);
    std::cout << period.name << " (Low " << period.go_low_water << " / High "
              << period.go_high_water << "):\n";
    if (const auto* go_ipfs = result.find(measure::DatasetRole::kVantage)) {
      print_series("go-ipfs", *go_ipfs);
    }
    std::size_t h = 0;
    for (const auto& [role, dataset] : result.datasets()) {
      if (role != measure::DatasetRole::kHydraHead) continue;
      print_series("Hydra H" + std::to_string(h++), dataset);
    }
  }

  std::cout << "\nPaper Fig. 5 shape: P0/P1 pinned between the configured\n"
               "watermarks (own trimming visible); P2 plateaus around 15k-16k,\n"
               "below LowWater=18k; P3 (client) stays in the low hundreds.\n";
  return 0;
}
