// The `"phases"` section of scenario files: strict parsing, field-path
// rejection of a malformed-input corpus, cross-section interaction rules,
// and exact to_json round-trips (docs/SCENARIOS.md, DESIGN.md §14).
#include <gtest/gtest.h>

#include "scenario/phases.hpp"
#include "scenario/scenario_spec.hpp"

namespace ipfs::scenario {
namespace {

using common::kHour;

ScenarioSpec parse_or_die(const std::string& text) {
  auto spec = ScenarioSpec::from_json(text);
  EXPECT_TRUE(spec.has_value()) << spec.error();
  return spec.value_or(ScenarioSpec{});
}

/// Wrap a `"phases"` body into a minimal valid scenario document.  The
/// churn and content sections are engaged so modulating programs pass the
/// engine's interaction rules; the corpus cases below fail at parse time,
/// long before those sections matter.
std::string with_phases(std::string_view phases_body) {
  return std::string(R"({"name":"x","churn":{},"content":{},"phases":)") +
         std::string(phases_body) + "}";
}

// ---- malformed-input corpus -------------------------------------------------

struct CorpusCase {
  const char* label;
  const char* phases;             ///< the "phases" section body
  const char* expected_error;  ///< the full error, byte for byte
};

TEST(PhasesSection, MalformedCorpusRejectedWithFieldPaths) {
  const CorpusCase corpus[] = {
      {"not an object", R"("surge")", "phases: expected an object, got string"},
      {"unknown field", R"({"programme":[]})",
       "phases: unknown field 'programme'"},
      {"program missing", R"({})", "phases.program: missing required field"},
      {"program not an array", R"({"program":{}})",
       "phases.program: expected an array"},
      {"empty program", R"({"program":[]})",
       "phases.program: must contain at least one phase"},
      {"phase not an object", R"({"program":[7]})",
       "phases.program[0]: expected an object, got number"},
      {"mode missing", R"({"program":[{"hold_ms":1}]})",
       "phases.program[0]: mode is required"},
      {"mode not a string", R"({"program":[{"mode":3}]})",
       "phases.program[0].mode: expected a string"},
      {"unknown mode", R"({"program":[{"mode":"surge"}]})",
       "phases.program[0].mode: expected \"hold\", \"ramp\", \"burst\" or "
       "\"flash_crowd\""},
      {"unknown phase field", R"({"program":[{"mode":"hold","dwell_ms":5}]})",
       "phases.program[0]: unknown field 'dwell_ms'"},
      {"switch_ms on a hold phase",
       R"({"program":[{"mode":"hold","switch_ms":60000}]})",
       "phases.program[0]: unknown field 'switch_ms'"},
      {"spike on a ramp phase", R"({"program":[{"mode":"ramp","spike":2}]})",
       "phases.program[0]: unknown field 'spike'"},
      {"hot_key on a burst phase",
       R"({"program":[{"mode":"burst","switch_ms":1,"hot_key":3}]})",
       "phases.program[0]: unknown field 'hot_key'"},
      {"name not a string", R"({"program":[{"mode":"hold","name":7}]})",
       "phases.program[0].name: expected a string"},
      {"hold_ms zero", R"({"program":[{"mode":"hold","hold_ms":0}]})",
       "phases.program[0]: hold_ms must be > 0"},
      {"hold_ms not an integer",
       R"({"program":[{"mode":"hold","hold_ms":"1h"}]})",
       "phases.program[0].hold_ms: expected an integer number of "
       "milliseconds"},
      {"churn_rate not a number",
       R"({"program":[{"mode":"hold","churn_rate":"fast"}]})",
       "phases.program[0].churn_rate: expected a number"},
      {"churn_rate zero", R"({"program":[{"mode":"hold","churn_rate":0}]})",
       "phases.program[0]: churn_rate must be > 0 and finite"},
      {"fetch_rate negative",
       R"({"program":[{"mode":"hold","fetch_rate":-2}]})",
       "phases.program[0]: fetch_rate must be > 0 and finite"},
      {"publish_rate zero", R"({"program":[{"mode":"hold","publish_rate":0}]})",
       "phases.program[0]: publish_rate must be > 0 and finite"},
      {"crawl_rate zero", R"({"program":[{"mode":"hold","crawl_rate":0}]})",
       "phases.program[0]: crawl_rate must be > 0 and finite"},
      {"population zero", R"({"program":[{"mode":"hold","population":0}]})",
       "phases.program[0]: population must be in (0, 1]"},
      {"population above one",
       R"({"program":[{"mode":"hold","population":1.5}]})",
       "phases.program[0]: population must be in (0, 1]"},
      {"burst without switch_ms", R"({"program":[{"mode":"burst"}]})",
       "phases.program[0]: switch_ms must be > 0"},
      {"burst switch_ms zero",
       R"({"program":[{"mode":"burst","switch_ms":0}]})",
       "phases.program[0]: switch_ms must be > 0"},
      {"flash spike zero",
       R"({"program":[{"mode":"flash_crowd","spike":0}]})",
       "phases.program[0]: spike must be > 0 and finite"},
      {"flash hot_fraction above one",
       R"({"program":[{"mode":"flash_crowd","hot_fraction":1.5}]})",
       "phases.program[0]: hot_fraction must be in [0, 1]"},
      {"flash hot_key negative",
       R"({"program":[{"mode":"flash_crowd","hot_key":-1}]})",
       "phases.program[0].hot_key: expected an integer in [0, 2^32)"},
      {"diurnal_clock wrong value",
       R"({"diurnal_clock":"phase","program":[{"mode":"hold"}]})",
       "phases.diurnal_clock: expected \"absolute\""},
      {"second phase carries the error index",
       R"({"program":[{"mode":"hold"},{"mode":"ramp","fetch_rate":0}]})",
       "phases.program[1]: fetch_rate must be > 0 and finite"},
  };
  for (const CorpusCase& test_case : corpus) {
    const auto spec = ScenarioSpec::from_json(with_phases(test_case.phases));
    ASSERT_FALSE(spec.has_value()) << test_case.label;
    EXPECT_EQ(spec.error(), test_case.expected_error) << test_case.label;
  }
}

// ---- cross-section interaction rules ----------------------------------------

TEST(PhasesSection, InteractionRulesRejectedWithFieldPaths) {
  const CorpusCase corpus[] = {
      {"churn modulation without a churn section",
       R"({"name":"x","phases":{"program":[{"mode":"hold","churn_rate":2}]}})",
       "phases: the program modulates churn rates or population but no "
       "churn section is engaged"},
      {"population gating without a churn section",
       R"({"name":"x","phases":{"program":[{"mode":"hold","population":0.5}]}})",
       "phases: the program modulates churn rates or population but no "
       "churn section is engaged"},
      {"fetch modulation without a content section",
       R"({"name":"x","phases":{"program":[{"mode":"hold","fetch_rate":2}]}})",
       "phases: the program modulates the content workload but no content "
       "section is engaged"},
      {"flash crowd without a content section",
       R"({"name":"x","phases":{"program":[{"mode":"flash_crowd"}]}})",
       "phases: the program modulates the content workload but no content "
       "section is engaged"},
      {"crawl modulation with the crawler disabled",
       R"({"name":"x","campaign":{"crawler":{"enabled":false}},
           "phases":{"program":[{"mode":"hold","crawl_rate":2}]}})",
       "phases: the program modulates crawl_rate but the crawler is "
       "disabled"},
      {"total hold exceeds the period",
       R"({"name":"x","period":{"duration_ms":3600000},
           "phases":{"program":[{"mode":"hold","hold_ms":3600001}]}})",
       "phases.program: total hold exceeds period.duration_ms — trailing "
       "phases would never run"},
      {"churn modulation next to diurnal without the clock acknowledgement",
       R"({"name":"x",
           "churn":{"diurnal":{"amplitude":0.5,"period_ms":86400000}},
           "phases":{"program":[{"mode":"hold","churn_rate":2}]}})",
       "phases: a churn-modulating program combined with churn.diurnal "
       "requires \"diurnal_clock\": \"absolute\""},
      {"clock acknowledgement without a diurnal section",
       R"({"name":"x","churn":{},
           "phases":{"diurnal_clock":"absolute",
                     "program":[{"mode":"hold","churn_rate":2}]}})",
       "phases.diurnal_clock: \"absolute\" requires a churn.diurnal "
       "section to acknowledge"},
  };
  for (const CorpusCase& test_case : corpus) {
    const auto spec = ScenarioSpec::from_json(test_case.phases);
    ASSERT_FALSE(spec.has_value()) << test_case.label;
    EXPECT_EQ(spec.error(), test_case.expected_error) << test_case.label;
  }
}

TEST(PhasesSection, DiurnalClockAcknowledgementAccepted) {
  // The one defined composition: churn-modulating program + diurnal +
  // explicit absolute-clock acknowledgement.
  const ScenarioSpec spec = parse_or_die(
      R"({"name":"x",
          "churn":{"diurnal":{"amplitude":0.5,"period_ms":86400000}},
          "phases":{"diurnal_clock":"absolute",
                    "program":[{"mode":"hold","churn_rate":2}]}})");
  ASSERT_TRUE(spec.phases.has_value());
  EXPECT_TRUE(spec.phases->diurnal_clock_absolute);
}

// ---- acceptance and round-trips ---------------------------------------------

TEST(PhasesSection, AbsentSectionStaysAbsent) {
  const ScenarioSpec spec = parse_or_die(R"({"name":"x"})");
  EXPECT_FALSE(spec.phases.has_value());
  // ...and is omitted from the export, so pre-phases files round-trip
  // byte-identically (the legacy golden pins depend on this).
  EXPECT_EQ(spec.to_json_string().find("\"phases\""), std::string::npos);
}

TEST(PhasesSection, NeutralProgramNeedsNoOtherSections) {
  // An all-neutral hold program modulates nothing, so it may ride on a
  // scenario with no churn/content sections at all.
  const ScenarioSpec spec =
      parse_or_die(R"({"name":"x","phases":{"program":[{"mode":"hold"}]}})");
  ASSERT_TRUE(spec.phases.has_value());
  EXPECT_FALSE(spec.phases->modulates_churn());
  EXPECT_FALSE(spec.phases->modulates_content());
  EXPECT_FALSE(spec.phases->modulates_crawl());
}

TEST(PhasesSection, FullSectionRoundTripsExactly) {
  ScenarioSpec spec = parse_or_die(with_phases(R"({
    "program": [
      {"name": "calm", "mode": "hold", "hold_ms": 3600000},
      {"name": "climb", "mode": "ramp", "hold_ms": 7200000,
       "churn_rate": 2.5, "fetch_rate": 3.0, "publish_rate": 0.5,
       "crawl_rate": 2.0, "population": 0.8},
      {"name": "storm", "mode": "burst", "hold_ms": 3600000,
       "fetch_rate": 4.0, "switch_ms": 600000},
      {"name": "flash", "mode": "flash_crowd", "hold_ms": 1800000,
       "hot_key": 17, "spike": 6.0, "hot_fraction": 0.75}
    ]
  })"));
  ASSERT_TRUE(spec.phases.has_value());
  ASSERT_EQ(spec.phases->program.size(), 4u);
  EXPECT_EQ(spec.phases->program[1].mode, PhaseMode::kRamp);
  EXPECT_EQ(spec.phases->program[2].switch_interval, 600000);
  EXPECT_EQ(spec.phases->program[3].hot_key, 17u);
  EXPECT_EQ(spec.phases->total_duration(), 3600000 + 7200000 + 3600000 + 1800000);

  const std::string exported = spec.to_json_string();
  const auto reparsed = ScenarioSpec::from_json(exported);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error();
  EXPECT_EQ(*reparsed, spec);
  EXPECT_EQ(reparsed->to_json_string(), exported);
}

TEST(PhasesSection, BuiltinPhasedScenariosValidateAndRoundTrip) {
  for (const char* name : {"flash-crowd", "load-ramp", "burst-storm"}) {
    const auto spec = ScenarioSpec::builtin(name);
    ASSERT_TRUE(spec.has_value()) << name;
    ASSERT_TRUE(spec->phases.has_value()) << name;
    EXPECT_EQ(ScenarioSpec::validate(*spec), std::nullopt) << name;
    const auto reparsed = ScenarioSpec::from_json(spec->to_json_string());
    ASSERT_TRUE(reparsed.has_value()) << name << ": " << reparsed.error();
    EXPECT_EQ(*reparsed, *spec) << name;
  }
}

}  // namespace
}  // namespace ipfs::scenario
