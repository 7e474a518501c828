#include "runtime/parallel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "measure/sink.hpp"

namespace ipfs::runtime {
namespace {

using common::kHour;

scenario::CampaignConfig cell(std::uint64_t seed) {
  scenario::CampaignConfig config;
  config.period = scenario::PeriodSpec::P4();
  config.period.duration = 3 * kHour;
  config.population = scenario::PopulationSpec::test_scale(0.02);
  config.seed = seed;
  return config;
}

constexpr std::array<std::uint64_t, 3> kSeeds = {11, 22, 33};

std::vector<TrialSpec> make_trials() {
  return ParallelTrialRunner::seed_sweep(cell(0), kSeeds);
}

/// Everything a run publishes: the in-memory stream plus a byte-exact JSON
/// trace of every dataset (the bit-identity witness).
struct StreamCapture {
  std::ostringstream json;
  measure::CollectingSink collected;
  measure::JsonExportSink exporter;
  measure::FanOutSink fan;

  StreamCapture()
      : exporter(json, [] {
          measure::JsonExportSink::Options options;
          options.include_connections = true;
          return options;
        }()),
        fan({&collected, &exporter}) {}
};

/// The reference: a plain sequential loop over the same trials.
void run_sequential(const std::vector<TrialSpec>& trials,
                    measure::MeasurementSink& sink) {
  for (const TrialSpec& trial : trials) {
    auto engine = scenario::CampaignEngine::create(trial.config);
    ASSERT_TRUE(engine.has_value()) << engine.error();
    engine->run(sink);
  }
}

TEST(ParallelTrialRunner, SeedSweepBuildsOneTrialPerSeed) {
  const auto trials = make_trials();
  ASSERT_EQ(trials.size(), kSeeds.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].config.seed, kSeeds[i]);
    EXPECT_NE(trials[i].name.find("seed=" + std::to_string(kSeeds[i])),
              std::string::npos);
  }
}

TEST(ParallelTrialRunner, MergedStreamBitIdenticalToSequential) {
  StreamCapture sequential;
  run_sequential(make_trials(), sequential.fan);

  StreamCapture parallel;
  ParallelTrialRunner runner(ParallelTrialRunner::Options{.workers = 4});
  const auto outcome = runner.run(make_trials(), parallel.fan);
  ASSERT_TRUE(outcome.has_value()) << outcome.error();

  // The JSON trace serialises every dataset field; byte equality here is
  // the "bit-identical merged output" acceptance bar.
  ASSERT_FALSE(sequential.json.str().empty());
  EXPECT_EQ(sequential.json.str(), parallel.json.str());

  // The in-memory stream must interleave identically too: crawls in trial
  // order with original timestamps, datasets in publication order.
  const auto& seq = sequential.collected;
  const auto& par = parallel.collected;
  ASSERT_EQ(par.crawls().size(), seq.crawls().size());
  for (std::size_t i = 0; i < seq.crawls().size(); ++i) {
    EXPECT_EQ(par.crawls()[i].at, seq.crawls()[i].at);
    EXPECT_EQ(par.crawls()[i].reached_servers, seq.crawls()[i].reached_servers);
    EXPECT_EQ(par.crawls()[i].learned_pids, seq.crawls()[i].learned_pids);
  }
  ASSERT_EQ(par.datasets().size(), seq.datasets().size());
  for (std::size_t i = 0; i < seq.datasets().size(); ++i) {
    EXPECT_EQ(par.datasets()[i].role, seq.datasets()[i].role);
    EXPECT_EQ(par.datasets()[i].dataset.vantage, seq.datasets()[i].dataset.vantage);
    EXPECT_EQ(par.datasets()[i].dataset.peer_count(),
              seq.datasets()[i].dataset.peer_count());
    EXPECT_EQ(par.datasets()[i].dataset.connection_count(),
              seq.datasets()[i].dataset.connection_count());
  }
  EXPECT_EQ(par.summary().population_size, seq.summary().population_size);
  EXPECT_EQ(par.summary().events_executed, seq.summary().events_executed);
}

TEST(ParallelTrialRunner, OutputIndependentOfWorkerCount) {
  StreamCapture one;
  ParallelTrialRunner single(ParallelTrialRunner::Options{.workers = 1});
  ASSERT_TRUE(single.run(make_trials(), one.fan).has_value());

  StreamCapture three;
  ParallelTrialRunner pooled(ParallelTrialRunner::Options{.workers = 3});
  ASSERT_TRUE(pooled.run(make_trials(), three.fan).has_value());

  ASSERT_FALSE(one.json.str().empty());
  EXPECT_EQ(one.json.str(), three.json.str());
}

TEST(ParallelTrialRunner, InvalidCellRejectsWholeBatch) {
  auto trials = make_trials();
  trials[1].config.period.duration = 0;
  trials[1].name = "broken-cell";

  ParallelTrialRunner runner;
  measure::CollectingSink sink;
  const auto outcome = runner.run(std::move(trials), sink);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_NE(outcome.error().find("broken-cell"), std::string::npos);
  // Nothing ran: an invalid sweep must not partially execute.
  EXPECT_TRUE(sink.datasets().empty());
  EXPECT_TRUE(sink.crawls().empty());
}

}  // namespace
}  // namespace ipfs::runtime
