// Shared support for the reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper.  By
// default campaigns run at full December-2021 scale (the numbers printed
// next to each paper value); set IPFS_SCALE=0.1 for a quick pass and
// IPFS_SEED to vary the synthetic network.  A malformed or non-positive
// IPFS_SCALE, or an IPFS_SEED that is not an unsigned integer, exits 2
// naming the variable.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "common/parse.hpp"
#include "measure/sink.hpp"
#include "scenario/campaign.hpp"

namespace ipfs::bench {

/// Exit 2 naming the bad environment `variable` (benches are scripts, but
/// a typo must not silently fall back to an hours-long full-scale run).
[[noreturn]] inline void reject_env(const char* variable, const std::string& reason) {
  std::cerr << variable << ": " << reason << "\n";
  std::exit(2);
}

inline double env_scale() {
  const char* text = std::getenv("IPFS_SCALE");
  if (text == nullptr) return 1.0;
  const auto parsed = common::parse_finite_double(text);
  if (!parsed) reject_env("IPFS_SCALE", parsed.error());
  if (*parsed <= 0.0) {
    reject_env("IPFS_SCALE", "must be > 0, got '" + std::string(text) + "'");
  }
  return *parsed;
}

inline std::uint64_t env_seed() {
  const char* text = std::getenv("IPFS_SEED");
  if (text == nullptr) return 20211203;
  const auto parsed = common::parse_u64(text);
  if (!parsed) reject_env("IPFS_SEED", parsed.error());
  return *parsed;
}

inline scenario::CampaignConfig make_config(scenario::PeriodSpec period) {
  scenario::CampaignConfig config;
  config.period = std::move(period);
  config.population = scenario::PopulationSpec::test_scale(env_scale());
  config.seed = env_seed();
  return config;
}

/// Obtain an engine through the validating factory, exiting loudly on a
/// config error (benches are scripts; there is nothing to recover).
inline scenario::CampaignEngine make_engine(scenario::CampaignConfig config) {
  auto engine = scenario::CampaignEngine::create(std::move(config));
  if (!engine) {
    std::cerr << "invalid campaign config: " << engine.error() << "\n";
    std::exit(2);
  }
  return std::move(*engine);
}

/// Run `config` to completion, collecting everything it publishes.
inline measure::CollectingSink run_campaign(scenario::CampaignConfig config) {
  measure::CollectingSink run;
  make_engine(std::move(config)).run(run);
  return run;
}

inline measure::CollectingSink run_period(scenario::PeriodSpec period) {
  return run_campaign(make_config(std::move(period)));
}

/// The run's go-ipfs vantage dataset, exiting loudly when the period has
/// no go-ipfs vantage.
inline const measure::Dataset& vantage(const measure::CollectingSink& run) {
  const measure::Dataset* dataset = run.find(measure::DatasetRole::kVantage);
  if (dataset == nullptr) {
    std::cerr << "the campaign published no go-ipfs vantage dataset\n";
    std::exit(1);
  }
  return *dataset;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  // Read both variables before printing, so a bad value exits cleanly.
  const double scale = env_scale();
  const std::uint64_t seed = env_seed();
  std::cout << "\n" << std::string(78, '#') << "\n"
            << "# " << title << "\n"
            << "# Reproduces: " << paper_ref << "\n"
            << "# scale=" << scale << " seed=" << seed << "\n"
            << std::string(78, '#') << "\n";
}

}  // namespace ipfs::bench
