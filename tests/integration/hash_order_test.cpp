// Hash-order tripwire (`ctest -L hash_order`, ROADMAP item 1).
//
// Several walks in src/ still visit hash tables in bucket order, and that
// order reaches the export: Swarm::close_all and close_peer close a
// vantage's connections in `open_`'s order, and Recorder::finish appends
// the records still open in its own `open_`'s order.  The small-scale pins
// in golden_determinism_test.cpp never hold enough connections for a
// different bucket count to reorder them; this campaign does.  A change
// that only reserves, rehashes or swaps one of those tables moves these
// bytes and fails the pin below.  Item 1's re-pin replaces it once those
// walks are ordered.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "scenario/scenario_spec.hpp"
#include "testing/campaign.hpp"

namespace ipfs::scenario {
namespace {

TEST(GoldenDeterminism, LargeChurnHourMatchesPinnedHash) {
  // FNV-1a (common::hash64) of the churn-baseline export at scale 2 for
  // one hour, seed 20211203 — the benchmark's large_churn_hour workload
  // with the paper-period seed.
  ScenarioSpec spec = *ScenarioSpec::builtin("churn-baseline");
  spec.population.scale = 2.0;
  spec.period.duration = common::kHour;
  spec.campaign.seed = 20211203;
  const std::string exported = testing::run_to_json(spec.to_campaign_config());
  ASSERT_FALSE(exported.empty());
  EXPECT_EQ(common::hash64(exported), 0xdd8cd76be970ef7dULL)
      << "large churn-baseline hour: export drifted from its pin (a hash "
         "table walk that reaches the export changed order?)";
}

}  // namespace
}  // namespace ipfs::scenario
