// `scenario::PhaseProgram` semantics: boundary placement, ramp
// continuity, burst square-wave edges, flash-crowd locality, and the
// tail-hold rule (DESIGN.md §14).  These are the pure-lookup properties
// the campaign engine's byte-identical sharding leans on — `rates_at`
// must answer identically for any caller at any time.
#include <gtest/gtest.h>

#include "common/sim_time.hpp"
#include "scenario/phases.hpp"

namespace ipfs::scenario {
namespace {

using common::kHour;
using common::kMinute;
using common::SimTime;

PhaseSpec hold_phase(double churn, common::SimDuration hold = kHour) {
  PhaseSpec phase;
  phase.mode = PhaseMode::kHold;
  phase.hold = hold;
  phase.churn_rate = churn;
  return phase;
}

// ---- boundaries and tail ----------------------------------------------------

TEST(PhaseProgram, BoundariesAreLeftClosedCumulativeHolds) {
  PhaseProgramSpec spec;
  spec.program = {hold_phase(2.0, kHour), hold_phase(3.0, 2 * kHour),
                  hold_phase(0.5, kHour)};
  const PhaseProgram program(spec);

  EXPECT_EQ(program.total_duration(), 4 * kHour);
  EXPECT_EQ(program.phase_start(0), 0);
  EXPECT_EQ(program.phase_start(1), kHour);
  EXPECT_EQ(program.phase_start(2), 3 * kHour);

  EXPECT_EQ(program.phase_index_at(0), 0u);
  EXPECT_EQ(program.phase_index_at(kHour - 1), 0u);
  EXPECT_EQ(program.phase_index_at(kHour), 1u);  // left-closed: boundary
  EXPECT_EQ(program.phase_index_at(3 * kHour - 1), 1u);
  EXPECT_EQ(program.phase_index_at(3 * kHour), 2u);
  // Past the program: clamps to the last phase.
  EXPECT_EQ(program.phase_index_at(40 * kHour), 2u);
}

TEST(PhaseProgram, TailHoldsTheLastEndpointForever) {
  PhaseSpec flash;
  flash.mode = PhaseMode::kFlashCrowd;
  flash.hold = kHour;
  flash.fetch_rate = 2.0;
  flash.spike = 8.0;
  flash.hot_key = 5;
  flash.hot_fraction = 0.9;
  PhaseProgramSpec spec;
  spec.program = {flash};
  const PhaseProgram program(spec);

  // Inside the phase: spiked and redirected.
  const PhaseRates active = program.rates_at(kHour / 2);
  EXPECT_DOUBLE_EQ(active.fetch, 16.0);  // fetch_rate * spike
  EXPECT_TRUE(active.flash);
  EXPECT_EQ(active.hot_key, 5u);
  EXPECT_DOUBLE_EQ(active.hot_fraction, 0.9);

  // At and past the end: the plain endpoint — no spike, no redirect.
  for (const SimTime at : {program.total_duration(),
                           program.total_duration() + 17 * kHour}) {
    const PhaseRates tail = program.rates_at(at);
    EXPECT_DOUBLE_EQ(tail.fetch, 2.0) << at;
    EXPECT_FALSE(tail.flash) << at;
    EXPECT_DOUBLE_EQ(tail.hot_fraction, 0.0) << at;
  }
}

// ---- ramp -------------------------------------------------------------------

TEST(PhaseProgram, RampInterpolatesFromThePreviousEndpoint) {
  PhaseSpec ramp;
  ramp.mode = PhaseMode::kRamp;
  ramp.hold = 2 * kHour;
  ramp.churn_rate = 3.0;
  ramp.fetch_rate = 5.0;
  ramp.population = 0.5;
  PhaseProgramSpec spec;
  spec.program = {hold_phase(1.0, kHour), ramp};
  const PhaseProgram program(spec);

  // Ramp start: continuous with the previous phase's endpoint (all 1.0).
  const PhaseRates at_start = program.rates_at(kHour);
  EXPECT_DOUBLE_EQ(at_start.churn, 1.0);
  EXPECT_DOUBLE_EQ(at_start.fetch, 1.0);
  EXPECT_DOUBLE_EQ(at_start.population, 1.0);

  // Midpoint: halfway to the target on every channel.
  const PhaseRates mid = program.rates_at(2 * kHour);
  EXPECT_DOUBLE_EQ(mid.churn, 2.0);
  EXPECT_DOUBLE_EQ(mid.fetch, 3.0);
  EXPECT_DOUBLE_EQ(mid.population, 0.75);

  // End: the target, and the tail holds it (continuity at the far edge).
  const PhaseRates end = program.rates_at(3 * kHour);
  EXPECT_DOUBLE_EQ(end.churn, 3.0);
  EXPECT_DOUBLE_EQ(end.fetch, 5.0);
  EXPECT_DOUBLE_EQ(end.population, 0.5);
}

TEST(PhaseProgram, FirstPhaseRampStartsFromTheNeutralBaseline) {
  PhaseSpec ramp;
  ramp.mode = PhaseMode::kRamp;
  ramp.hold = kHour;
  ramp.churn_rate = 9.0;
  PhaseProgramSpec spec;
  spec.program = {ramp};
  const PhaseProgram program(spec);
  EXPECT_DOUBLE_EQ(program.rates_at(0).churn, 1.0);
  EXPECT_DOUBLE_EQ(program.rates_at(kHour / 2).churn, 5.0);
}

TEST(PhaseProgram, RampIsMonotoneAndContinuousAcrossTheWindow) {
  PhaseSpec ramp;
  ramp.mode = PhaseMode::kRamp;
  ramp.hold = kHour;
  ramp.fetch_rate = 4.0;
  PhaseProgramSpec spec;
  spec.program = {hold_phase(1.0, kHour), ramp};
  const PhaseProgram program(spec);

  double previous = 0.0;
  for (SimTime at = kHour; at <= 2 * kHour; at += kMinute) {
    const double fetch = program.rates_at(at).fetch;
    EXPECT_GE(fetch, previous) << "at=" << at;
    // Continuity bound: one minute of a 3.0-wide, one-hour ramp moves the
    // multiplier by exactly 3/60 = 0.05.
    if (at > kHour) EXPECT_NEAR(fetch - previous, 0.05, 1e-12) << "at=" << at;
    previous = fetch;
  }
}

// ---- burst ------------------------------------------------------------------

TEST(PhaseProgram, BurstTogglesOnLeftClosedSwitchEdges) {
  PhaseSpec burst;
  burst.mode = PhaseMode::kBurst;
  burst.hold = 4 * kHour;
  burst.fetch_rate = 5.0;
  burst.switch_interval = kHour;
  PhaseProgramSpec spec;
  spec.program = {hold_phase(1.0, kHour), burst};
  const PhaseProgram program(spec);

  // Starts hi; each edge lands exactly on a switch_interval multiple past
  // the phase start, and an instant on an edge takes the new level.
  EXPECT_DOUBLE_EQ(program.rates_at(kHour).fetch, 5.0);           // hi edge
  EXPECT_DOUBLE_EQ(program.rates_at(2 * kHour - 1).fetch, 5.0);   // hi tail
  EXPECT_DOUBLE_EQ(program.rates_at(2 * kHour).fetch, 1.0);       // lo edge
  EXPECT_DOUBLE_EQ(program.rates_at(3 * kHour - 1).fetch, 1.0);   // lo tail
  EXPECT_DOUBLE_EQ(program.rates_at(3 * kHour).fetch, 5.0);       // hi again
  EXPECT_DOUBLE_EQ(program.rates_at(4 * kHour).fetch, 1.0);
}

TEST(PhaseProgram, BurstLowIsThePreviousEndpointNotNeutral) {
  PhaseSpec burst;
  burst.mode = PhaseMode::kBurst;
  burst.hold = 2 * kHour;
  burst.churn_rate = 6.0;
  burst.switch_interval = kHour;
  PhaseProgramSpec spec;
  spec.program = {hold_phase(2.0, kHour), burst};
  const PhaseProgram program(spec);
  EXPECT_DOUBLE_EQ(program.rates_at(kHour).churn, 6.0);      // hi = target
  EXPECT_DOUBLE_EQ(program.rates_at(2 * kHour).churn, 2.0);  // lo = previous
}

// ---- flash crowd ------------------------------------------------------------

TEST(PhaseProgram, FlashSpikeAndRedirectStayLocalToThePhase) {
  PhaseSpec flash;
  flash.mode = PhaseMode::kFlashCrowd;
  flash.hold = kHour;
  flash.spike = 4.0;
  flash.hot_key = 3;
  flash.hot_fraction = 1.0;
  PhaseSpec after;
  after.mode = PhaseMode::kRamp;
  after.hold = kHour;
  after.fetch_rate = 2.0;
  PhaseProgramSpec spec;
  spec.program = {flash, after};
  const PhaseProgram program(spec);

  // The following ramp starts from the flash phase's *endpoint* — the
  // plain fetch_rate (1.0), not the spiked 4.0 — and carries no redirect.
  const PhaseRates at_ramp_start = program.rates_at(kHour);
  EXPECT_DOUBLE_EQ(at_ramp_start.fetch, 1.0);
  EXPECT_FALSE(at_ramp_start.flash);
  EXPECT_DOUBLE_EQ(at_ramp_start.hot_fraction, 0.0);
}

// ---- purity -----------------------------------------------------------------

TEST(PhaseProgram, LookupIsPureAcrossRepeatedQueries) {
  PhaseSpec burst;
  burst.mode = PhaseMode::kBurst;
  burst.hold = 3 * kHour;
  burst.fetch_rate = 7.0;
  burst.switch_interval = 20 * kMinute;
  PhaseProgramSpec spec;
  spec.program = {hold_phase(1.5, kHour), burst};
  const PhaseProgram program(spec);

  // Out-of-order and repeated queries must agree — no hidden cursor.
  const SimTime probes[] = {4 * kHour, 0, 90 * kMinute, kHour, 90 * kMinute};
  for (const SimTime at : probes) {
    EXPECT_EQ(program.rates_at(at), program.rates_at(at)) << "at=" << at;
  }
  EXPECT_EQ(program.rates_at(90 * kMinute), program.rates_at(90 * kMinute));
}

// ---- spec validation --------------------------------------------------------

TEST(PhaseProgram, ValidateRejectsOutOfModeFields) {
  PhaseProgramSpec spec;
  spec.program = {hold_phase(1.0)};
  spec.program[0].spike = 2.0;  // flash_crowd-only field on a hold phase
  const auto error = PhaseProgramSpec::validate(spec);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("phases.program[0]"), std::string::npos);
  EXPECT_NE(error->find("flash_crowd"), std::string::npos);
}

TEST(PhaseProgram, ValidateRejectsNonFiniteRates) {
  PhaseProgramSpec spec;
  spec.program = {hold_phase(1.0)};
  spec.program[0].fetch_rate = std::numeric_limits<double>::infinity();
  const auto error = PhaseProgramSpec::validate(spec);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("fetch_rate must be > 0 and finite"),
            std::string::npos);
}

}  // namespace
}  // namespace ipfs::scenario
