// The `"content"` section of scenario files: strict parsing, field-path
// rejection of a malformed-input corpus, and exact to_json round-trips
// (docs/SCENARIOS.md, DESIGN.md §11).
#include <gtest/gtest.h>

#include "scenario/content.hpp"
#include "scenario/scenario_spec.hpp"

namespace ipfs::scenario {
namespace {

using common::kHour;

ScenarioSpec parse_or_die(const std::string& text) {
  auto spec = ScenarioSpec::from_json(text);
  EXPECT_TRUE(spec.has_value()) << spec.error();
  return spec.value_or(ScenarioSpec{});
}

/// Wrap a `"content"` body into a minimal valid scenario document.
std::string with_content(std::string_view content_body) {
  return std::string(R"({"name":"x","content":)") + std::string(content_body) +
         "}";
}

// ---- malformed-input corpus -------------------------------------------------

struct CorpusCase {
  const char* label;
  const char* content;            ///< the "content" section body
  const char* expected_error;  ///< the full error, byte for byte
};

TEST(ContentSection, MalformedCorpusRejectedWithFieldPaths) {
  const CorpusCase corpus[] = {
      {"not an object", R"("heavy")", "content: expected an object, got string"},
      {"an array", R"([1,2,3])", "content: expected an object, got array"},
      {"unknown field", R"({"key_count":64})",
       "content: unknown field 'key_count'"},
      {"keys zero", R"({"keys":0})", "content: keys must be >= 1"},
      {"keys not an integer", R"({"keys":"many"})",
       "content.keys: expected an integer in [0, 2^32)"},
      {"keys negative", R"({"keys":-4})",
       "content.keys: expected an integer in [0, 2^32)"},
      {"publishes_per_peer negative", R"({"publishes_per_peer":-0.5})",
       "content: publishes_per_peer must be >= 0"},
      {"publishes_per_peer not a number", R"({"publishes_per_peer":"two"})",
       "content.publishes_per_peer: expected a number"},
      {"fetches_per_hour negative", R"({"fetches_per_hour":-1})",
       "content: fetches_per_hour must be >= 0"},
      {"provider ttl zero", R"({"provider_ttl_ms":0})",
       "content: provider_ttl_ms must be > 0"},
      {"provider ttl not integer ms", R"({"provider_ttl_ms":"1d"})",
       "content.provider_ttl_ms: expected an integer number of milliseconds"},
      {"republish interval zero", R"({"republish_interval_ms":0})",
       "content: republish_interval_ms must be > 0"},
      {"republish not below ttl",
       R"({"provider_ttl_ms":3600000,"republish_interval_ms":3600000})",
       "content: republish_interval_ms must be < provider_ttl_ms"},
      {"republish above ttl",
       R"({"provider_ttl_ms":3600000,"republish_interval_ms":7200000})",
       "content: republish_interval_ms must be < provider_ttl_ms"},
      {"publish spread zero", R"({"publish_spread_ms":0})",
       "content: publish_spread_ms must be > 0"},
      {"publish spread negative", R"({"publish_spread_ms":-1000})",
       "content: publish_spread_ms must be > 0"},
      {"bucket refresh zero", R"({"bucket_refresh_interval_ms":0})",
       "content: bucket_refresh_interval_ms must be > 0"},
      {"replacement cache zero", R"({"replacement_cache_size":0})",
       "content: replacement_cache_size must be >= 1"},
      {"sample interval zero", R"({"sample_interval_ms":0})",
       "content: sample_interval_ms must be > 0"},
      {"fetch_success above one", R"({"fetch_success":1.01})",
       "content: fetch_success must be in [0, 1]"},
      {"fetch_success negative", R"({"fetch_success":-0.1})",
       "content: fetch_success must be in [0, 1]"},
      {"fetch_success not a number", R"({"fetch_success":"mostly"})",
       "content.fetch_success: expected a number"},
      {"categories not an object", R"({"categories":[]})",
       "content.categories: expected an object, got array"},
      {"unknown category name", R"({"categories":{"warthog":{}}})",
       "content.categories: unknown category name 'warthog'"},
      {"category entry not an object", R"({"categories":{"crawler":7}})",
       "content.categories.crawler: expected an object, got number"},
      {"category unknown field",
       R"({"categories":{"crawler":{"fetch_rate":5}}})",
       "content.categories.crawler: unknown field 'fetch_rate'"},
      {"category negative publishes",
       R"({"categories":{"core-server":{"publishes_per_peer":-2}}})",
       "content.categories.core-server: publishes_per_peer must be >= 0"},
      {"category negative fetches",
       R"({"categories":{"light-client":{"fetches_per_hour":-0.25}}})",
       "content.categories.light-client: fetches_per_hour must be >= 0"},
      {"duplicate category override",
       R"({"categories":{"crawler":{},"crawler":{}}})",
       "content.categories.crawler: duplicate category override"},
  };
  for (const CorpusCase& test_case : corpus) {
    const auto spec = ScenarioSpec::from_json(with_content(test_case.content));
    ASSERT_FALSE(spec.has_value()) << test_case.label;
    EXPECT_EQ(spec.error(), test_case.expected_error) << test_case.label;
  }
}

// ---- acceptance and round-trips ---------------------------------------------

TEST(ContentSection, EmptySectionEngagesTheDefaults) {
  const ScenarioSpec spec = parse_or_die(with_content("{}"));
  ASSERT_TRUE(spec.content.has_value());
  EXPECT_EQ(*spec.content, ContentSpec{});
  // The go-ipfs provider-record constants are the defaults.
  EXPECT_EQ(spec.content->provider_ttl, 24 * kHour);
  EXPECT_EQ(spec.content->republish_interval, 12 * kHour);
}

TEST(ContentSection, AbsentSectionStaysAbsent) {
  const ScenarioSpec spec = parse_or_die(R"({"name":"x"})");
  EXPECT_FALSE(spec.content.has_value());
  // ...and is omitted from the export, so pre-content files round-trip
  // byte-identically.
  EXPECT_EQ(spec.to_json_string().find("\"content\""), std::string::npos);
}

TEST(ContentSection, FullSectionRoundTripsExactly) {
  ScenarioSpec spec = parse_or_die(with_content(R"({
    "keys": 96,
    "publishes_per_peer": 1.5,
    "fetches_per_hour": 3.25,
    "provider_ttl_ms": 7200000,
    "republish_interval_ms": 3600000,
    "publish_spread_ms": 900000,
    "bucket_refresh_interval_ms": 300000,
    "replacement_cache_size": 8,
    "sample_interval_ms": 1800000,
    "fetch_success": 0.85,
    "categories": {
      "core-server": {"publishes_per_peer": 6},
      "one-time": {"fetches_per_hour": 0}
    }
  })"));
  ASSERT_TRUE(spec.content.has_value());
  ASSERT_EQ(spec.content->categories.size(), 2u);
  // Absent override fields inherit the section's top-level rates.
  EXPECT_DOUBLE_EQ(spec.content->categories[0].fetches_per_hour, 3.25);
  EXPECT_DOUBLE_EQ(spec.content->categories[1].publishes_per_peer, 1.5);

  const std::string exported = spec.to_json_string();
  const auto reparsed = ScenarioSpec::from_json(exported);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error();
  EXPECT_EQ(*reparsed, spec);
  EXPECT_EQ(reparsed->to_json_string(), exported);
}

TEST(ContentSection, SectionReachesTheCampaignConfig) {
  const ScenarioSpec spec = parse_or_die(with_content(R"({"keys": 32})"));
  const CampaignConfig config = spec.to_campaign_config();
  ASSERT_TRUE(config.content.has_value());
  EXPECT_EQ(config.content->keys, 32u);
  // And an absent section stays absent through the conversion.
  EXPECT_FALSE(parse_or_die(R"({"name":"x"})").to_campaign_config().content);
}

TEST(ContentSection, BuiltinContentScenariosValidateAndRoundTrip) {
  for (const char* name : {"content-baseline", "flash-fetch"}) {
    const auto spec = ScenarioSpec::builtin(name);
    ASSERT_TRUE(spec.has_value()) << name;
    ASSERT_TRUE(spec->content.has_value()) << name;
    EXPECT_EQ(ScenarioSpec::validate(*spec), std::nullopt) << name;
    const auto reparsed = ScenarioSpec::from_json(spec->to_json_string());
    ASSERT_TRUE(reparsed.has_value()) << name << ": " << reparsed.error();
    EXPECT_EQ(*reparsed, *spec) << name;
  }
}

}  // namespace
}  // namespace ipfs::scenario
