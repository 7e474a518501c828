// The `"churn"` section of scenario files: strict parsing, field-path
// rejection of a malformed-input corpus, and exact to_json round-trips
// (docs/SCENARIOS.md, DESIGN.md §10).
#include <gtest/gtest.h>

#include "scenario/churn.hpp"
#include "scenario/scenario_spec.hpp"

namespace ipfs::scenario {
namespace {

using common::kDay;
using common::kHour;

ScenarioSpec parse_or_die(const std::string& text) {
  auto spec = ScenarioSpec::from_json(text);
  EXPECT_TRUE(spec.has_value()) << spec.error();
  return spec.value_or(ScenarioSpec{});
}

/// Wrap a `"churn"` body into a minimal valid scenario document.
std::string with_churn(std::string_view churn_body) {
  return std::string(R"({"name":"x","churn":)") + std::string(churn_body) + "}";
}

// ---- malformed-input corpus -------------------------------------------------

struct CorpusCase {
  const char* label;
  const char* churn;              ///< the "churn" section body
  const char* expected_error;  ///< the full error, byte for byte
};

TEST(ChurnSection, MalformedCorpusRejectedWithFieldPaths) {
  const CorpusCase corpus[] = {
      {"not an object", R"("heavy")", "churn: expected an object, got string"},
      {"unknown field", R"({"sessions":{}})", "churn: unknown field 'sessions'"},
      {"session not an object", R"({"session":42})",
       "churn.session: expected an object, got number"},
      {"unknown distribution kind", R"({"session":{"kind":"zipf"}})",
       "churn.session.kind: expected \"exponential\", \"weibull\" or "
       "\"lognormal\""},
      {"exponential missing mean", R"({"session":{"kind":"exponential"}})",
       "churn.session: mean_ms must be > 0"},
      {"exponential negative mean",
       R"({"session":{"kind":"exponential","mean_ms":-5}})",
       "churn.session: mean_ms must be > 0"},
      {"exponential with weibull field",
       R"({"session":{"kind":"exponential","mean_ms":1000,"shape":2}})",
       "churn.session: unknown field 'shape'"},
      {"weibull zero shape",
       R"({"session":{"kind":"weibull","shape":0,"scale_ms":1000}})",
       "churn.session: shape must be > 0"},
      {"weibull zero scale",
       R"({"session":{"kind":"weibull","shape":0.5,"scale_ms":0}})",
       "churn.session: scale_ms must be > 0"},
      {"weibull with lognormal field",
       R"({"session":{"kind":"weibull","shape":0.5,"scale_ms":9,"sigma":1}})",
       "churn.session: unknown field 'sigma'"},
      {"lognormal zero median",
       R"({"gap":{"kind":"lognormal","median_ms":0,"sigma":1}})",
       "churn.gap: median_ms must be > 0"},
      {"lognormal negative sigma",
       R"({"gap":{"kind":"lognormal","median_ms":1000,"sigma":-0.1}})",
       "churn.gap: sigma must be >= 0"},
      {"gap not an object", R"({"gap":[1,2]})",
       "churn.gap: expected an object, got array"},
      {"initial_online above one", R"({"initial_online":1.01})",
       "churn: initial_online must be in [0, 1]"},
      {"initial_online negative", R"({"initial_online":-0.5})",
       "churn: initial_online must be in [0, 1]"},
      {"initial_online not a number", R"({"initial_online":"half"})",
       "churn.initial_online: expected a number"},
      {"sample interval zero", R"({"sample_interval_ms":0})",
       "churn: sample_interval_ms must be > 0"},
      {"diurnal unknown field", R"({"diurnal":{"amp":0.5}})",
       "churn.diurnal: unknown field 'amp'"},
      {"diurnal amplitude at one",
       R"({"diurnal":{"amplitude":1.0,"period_ms":86400000}})",
       "churn.diurnal: amplitude must be in [0, 1)"},
      {"diurnal amplitude negative",
       R"({"diurnal":{"amplitude":-0.2,"period_ms":86400000}})",
       "churn.diurnal: amplitude must be in [0, 1)"},
      {"diurnal zero period",
       R"({"diurnal":{"amplitude":0.5,"period_ms":0}})",
       "churn.diurnal: period_ms must be > 0"},
      {"diurnal phase outside the period",
       R"({"diurnal":{"amplitude":0.5,"period_ms":1000,"phase_ms":1000}})",
       "churn.diurnal: phase_ms must be in [0, period_ms)"},
      {"categories not an object", R"({"categories":[]})",
       "churn.categories: expected an object, got array"},
      {"unknown category name", R"({"categories":{"warthog":{}}})",
       "churn.categories: unknown category name 'warthog'"},
      {"category entry not an object", R"({"categories":{"crawler":7}})",
       "churn.categories.crawler: expected an object, got number"},
      {"category unknown field",
       R"({"categories":{"crawler":{"retention_ms":5}}})",
       "churn.categories.crawler: unknown field 'retention_ms'"},
      {"category nested distribution error",
       R"({"categories":{"core-server":
             {"session":{"kind":"weibull","shape":-1,"scale_ms":10}}}})",
       "churn.categories.core-server.session: shape must be > 0"},
      {"duplicate category override",
       R"({"categories":{"crawler":{},"crawler":{}}})",
       "churn.categories.crawler: duplicate category override"},
  };
  for (const CorpusCase& test_case : corpus) {
    const auto spec = ScenarioSpec::from_json(with_churn(test_case.churn));
    ASSERT_FALSE(spec.has_value()) << test_case.label;
    EXPECT_EQ(spec.error(), test_case.expected_error) << test_case.label;
  }
}

// ---- acceptance and round-trips ---------------------------------------------

TEST(ChurnSection, EmptySectionEngagesTheDefaults) {
  const ScenarioSpec spec = parse_or_die(with_churn("{}"));
  ASSERT_TRUE(spec.churn.has_value());
  EXPECT_EQ(*spec.churn, ChurnSpec{});
  EXPECT_EQ(spec.churn->session.kind, SessionDistribution::Kind::kWeibull);
  EXPECT_EQ(spec.churn->gap.kind, SessionDistribution::Kind::kLognormal);
}

TEST(ChurnSection, AbsentSectionStaysAbsent) {
  const ScenarioSpec spec = parse_or_die(R"({"name":"x"})");
  EXPECT_FALSE(spec.churn.has_value());
  // ...and is omitted from the export, so pre-churn files round-trip
  // byte-identically.
  EXPECT_EQ(spec.to_json_string().find("\"churn\""), std::string::npos);
}

TEST(ChurnSection, FullSectionRoundTripsExactly) {
  ScenarioSpec spec = parse_or_die(with_churn(R"({
    "session": {"kind": "weibull", "shape": 0.61, "scale_ms": 5400000},
    "gap": {"kind": "lognormal", "median_ms": 3600000, "sigma": 1.25},
    "initial_online": 0.42,
    "sample_interval_ms": 1800000,
    "diurnal": {"amplitude": 0.7, "period_ms": 86400000, "phase_ms": 43200000},
    "categories": {
      "core-server": {"session": {"kind": "exponential", "mean_ms": 86400000}},
      "crawler": {"gap": {"kind": "weibull", "shape": 2.5, "scale_ms": 60000}}
    }
  })"));
  ASSERT_TRUE(spec.churn.has_value());
  EXPECT_EQ(spec.churn->categories.size(), 2u);
  // Absent override fields inherit the section's top-level distribution.
  EXPECT_EQ(spec.churn->categories[0].gap, spec.churn->gap);
  EXPECT_EQ(spec.churn->categories[1].session, spec.churn->session);

  const std::string exported = spec.to_json_string();
  const auto reparsed = ScenarioSpec::from_json(exported);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error();
  EXPECT_EQ(*reparsed, spec);
  EXPECT_EQ(reparsed->to_json_string(), exported);
}

TEST(ChurnSection, BuiltinChurnScenariosValidateAndRoundTrip) {
  for (const char* name : {"churn-baseline", "diurnal-churn"}) {
    const auto spec = ScenarioSpec::builtin(name);
    ASSERT_TRUE(spec.has_value()) << name;
    ASSERT_TRUE(spec->churn.has_value()) << name;
    EXPECT_EQ(ScenarioSpec::validate(*spec), std::nullopt) << name;
    const auto reparsed = ScenarioSpec::from_json(spec->to_json_string());
    ASSERT_TRUE(reparsed.has_value()) << name << ": " << reparsed.error();
    EXPECT_EQ(*reparsed, *spec) << name;
  }
}

}  // namespace
}  // namespace ipfs::scenario
