// The `"network"` section of scenario files: strict parsing, field-path
// rejection of a malformed-input corpus, and exact to_json round-trips
// (docs/SCENARIOS.md, DESIGN.md §9).
#include <gtest/gtest.h>

#include "net/conditions.hpp"
#include "scenario/scenario_spec.hpp"

namespace ipfs::scenario {
namespace {

using common::kHour;

ScenarioSpec parse_or_die(const std::string& text) {
  auto spec = ScenarioSpec::from_json(text);
  EXPECT_TRUE(spec.has_value()) << spec.error();
  return spec.value_or(ScenarioSpec{});
}

/// Wrap a `"network"` body into a minimal valid scenario document.
std::string with_network(std::string_view network_body) {
  return std::string(R"({"name":"x","network":)") + std::string(network_body) + "}";
}

// ---- malformed-input corpus -------------------------------------------------

struct CorpusCase {
  const char* label;
  const char* network;            ///< the "network" section body
  const char* expected_error;  ///< the full error, byte for byte
};

TEST(NetworkSection, MalformedCorpusRejectedWithFieldPaths) {
  const CorpusCase corpus[] = {
      {"not an object", R"("fast")", "network: expected an object, got string"},
      {"unknown field", R"({"zoness":[]})", "network: unknown field 'zoness'"},
      {"latency typo", R"({"latency":{"flat_min":5}})",
       "network.latency: unknown field 'flat_min'"},
      {"inverted flat range", R"({"latency":{"flat_min_ms":50,"flat_max_ms":10}})",
       "network.latency: 0 < flat_min_ms <= flat_max_ms required"},
      {"jitter above one", R"({"latency":{"jitter_fraction":1.5}})",
       "network.latency: jitter_fraction must be in [0, 1]"},
      {"zone weight zero", R"({"zones":[{"name":"eu","weight":0}]})",
       "network.zones[0]: weight must be > 0"},
      {"duplicate zone",
       R"({"zones":[{"name":"eu"},{"name":"eu"}]})",
       "network.zones[1]: duplicate zone name 'eu'"},
      {"zone bad intra range",
       R"({"zones":[{"name":"eu","intra_min_ms":30,"intra_max_ms":5}]})",
       "network.zones[0]: 0 < intra_min_ms <= intra_max_ms required"},
      {"link without zones",
       R"({"links":[{"from":"eu","to":"na"}]})", "network.links[0]: links require zones"},
      {"link to unknown zone",
       R"({"zones":[{"name":"eu"},{"name":"na"}],"links":[{"from":"eu","to":"mars"}]})",
       "network.links[0]: unknown zone 'mars'"},
      {"self link",
       R"({"zones":[{"name":"eu"},{"name":"na"}],"links":[{"from":"eu","to":"eu"}]})",
       "network.links[0]: intra-zone latency belongs on the zone, not a "
       "link"},
      {"mirrored duplicate link",
       R"({"zones":[{"name":"eu"},{"name":"na"}],
           "links":[{"from":"eu","to":"na"},{"from":"na","to":"eu"}]})",
       "network.links[1]: duplicate link na <-> eu"},
      {"dial failure above one", R"({"loss":{"dial_failure":1.01}})",
       "network.loss: dial_failure must be in [0, 1]"},
      {"negative message loss", R"({"loss":{"message_loss":-0.1}})",
       "network.loss: message_loss must be in [0, 1]"},
      {"nat class weight", R"({"nat":{"classes":[{"name":"p","weight":-1}]}})",
       "network.nat.classes[0]: weight must be > 0"},
      {"nat category unknown class",
       R"({"nat":{"classes":[{"name":"p"}],"categories":{"crawler":"q"}}})",
       "network.nat.categories.crawler: unknown class 'q'"},
      {"nat category unknown category",
       R"({"nat":{"classes":[{"name":"p"}],"categories":{"warthog":"p"}}})",
       "network.nat.categories: unknown category name 'warthog'"},
      {"unknown disturbance kind",
       R"({"disturbances":[{"kind":"comet"}]})",
       "network.disturbances[0].kind: expected \"outage\", \"partition\" or \"degrade\""},
      {"outage with degrade fields",
       R"({"zones":[{"name":"eu"}],
           "disturbances":[{"kind":"outage","zone":"eu","until_ms":5,
                            "latency_factor":2}]})",
       "network.disturbances[0]: unknown field 'latency_factor'"},
      {"outage unknown zone",
       R"({"zones":[{"name":"eu"}],
           "disturbances":[{"kind":"outage","zone":"ap","until_ms":5}]})",
       "network.disturbances[0]: unknown zone 'ap'"},
      {"empty window",
       R"({"zones":[{"name":"eu"}],
           "disturbances":[{"kind":"outage","zone":"eu","from_ms":5,"until_ms":5}]})",
       "network.disturbances[0]: until_ms must be > from_ms"},
      {"window longer than period",
       R"({"disturbances":[{"kind":"degrade","from_ms":0,"until_ms":10,
                            "period_ms":5}]})",
       "network.disturbances[0]: window longer than period_ms"},
      {"degrade factor below one",
       R"({"disturbances":[{"kind":"degrade","until_ms":5,"latency_factor":0.5}]})",
       "network.disturbances[0]: latency_factor must be >= 1"},
      {"extra loss above one",
       R"({"disturbances":[{"kind":"degrade","until_ms":5,"extra_loss":2}]})",
       "network.disturbances[0]: extra_loss must be in [0, 1]"},
      {"overlapping windows",
       R"({"zones":[{"name":"eu"}],
           "disturbances":[{"kind":"outage","zone":"eu","from_ms":0,"until_ms":10},
                           {"kind":"outage","zone":"eu","from_ms":9,"until_ms":20}]})",
       "network.disturbances[1]: window overlaps disturbances[0] (same "
       "outage target)"},
      {"partition covering everything",
       R"({"zones":[{"name":"eu"}],
           "disturbances":[{"kind":"partition","zones":["eu"],"until_ms":5}]})",
       "network.disturbances[0]: partition must leave at least one zone outside"},
      {"equal-period recurrences overlapping in phase",
       R"({"disturbances":[
             {"kind":"degrade","from_ms":0,"until_ms":7200000,
              "period_ms":86400000},
             {"kind":"degrade","from_ms":3600000,"until_ms":10800000,
              "period_ms":86400000}]})",
       "network.disturbances[1]: window overlaps disturbances[0] (same "
       "degrade target)"},
      {"one-shot landing inside a later recurrence cycle",
       R"({"disturbances":[
             {"kind":"degrade","from_ms":0,"until_ms":7200000,
              "period_ms":86400000},
             {"kind":"degrade","from_ms":90000000,"until_ms":91000000}]})",
       "network.disturbances[1]: window overlaps disturbances[0] (same "
       "degrade target)"},
  };
  for (const CorpusCase& test_case : corpus) {
    const auto spec = ScenarioSpec::from_json(with_network(test_case.network));
    ASSERT_FALSE(spec.has_value()) << test_case.label;
    EXPECT_EQ(spec.error(), test_case.expected_error) << test_case.label;
  }
}

// ---- round-tripping ---------------------------------------------------------

TEST(NetworkSection, RoundTripPreservesEveryConditionField) {
  ScenarioSpec spec;
  spec.name = "conditions-everything";
  net::ConditionSpec network;
  network.latency = {.min_one_way = 3, .max_one_way = 220, .jitter_fraction = 0.31};
  network.symmetric = false;
  network.zones = {
      {.name = "eu", .weight = 0.5, .intra_min = 4, .intra_max = 22},
      {.name = "ap", .weight = 0.5, .intra_min = 9, .intra_max = 44},
  };
  network.default_link = {.min_one_way = 77, .max_one_way = 190};
  network.links = {{.from = "eu", .to = "ap", .min_one_way = 101, .max_one_way = 175}};
  network.loss = {.dial_failure = 0.0625, .message_loss = 0.03125};
  network.nat.classes = {
      {.name = "public", .weight = 0.25, .accepts_inbound = true},
      {.name = "cgnat", .weight = 0.75, .accepts_inbound = false},
  };
  network.nat.categories = {{"normal-user", "cgnat"}, {"crawler", "public"}};
  network.disturbances = {
      {.kind = net::DisturbanceSpec::Kind::kOutage,
       .zone = "ap",
       .from = 1 * kHour,
       .until = 2 * kHour},
      {.kind = net::DisturbanceSpec::Kind::kPartition,
       .zones = {"eu"},
       .from = 3 * kHour,
       .until = 4 * kHour,
       .period = 12 * kHour},
      {.kind = net::DisturbanceSpec::Kind::kDegrade,
       .zone = "eu",
       .from = 5 * kHour,
       .until = 6 * kHour,
       .latency_factor = 1.75,
       .extra_loss = 0.125},
      {.kind = net::DisturbanceSpec::Kind::kDegrade,  // global variant
       .from = 7 * kHour,
       .until = 8 * kHour,
       .latency_factor = 2.0},
  };
  spec.network = std::move(network);
  ASSERT_EQ(ScenarioSpec::validate(spec), std::nullopt);

  const std::string text = spec.to_json_string();
  const ScenarioSpec reparsed = parse_or_die(text);
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(reparsed.to_json_string(), text);  // serialisation is a fixpoint
}

TEST(NetworkSection, DifferentPeriodRecurrencesAreAcceptedAndCompose) {
  // Coincidences between recurrences of different periods are deliberate
  // composition (factors multiply, losses add), not a rejected overlap.
  const ScenarioSpec spec = parse_or_die(with_network(R"({
    "disturbances": [
      {"kind":"degrade","from_ms":0,"until_ms":7200000,"period_ms":86400000,
       "latency_factor":2.0},
      {"kind":"degrade","from_ms":0,"until_ms":3600000,"period_ms":21600000,
       "latency_factor":1.5}
    ]
  })"));
  ASSERT_TRUE(spec.network.has_value());
  EXPECT_EQ(spec.network->disturbances.size(), 2u);
}

TEST(NetworkSection, EmptySectionEngagesDefaultConditions) {
  const ScenarioSpec spec = parse_or_die(with_network("{}"));
  ASSERT_TRUE(spec.network.has_value());
  EXPECT_EQ(*spec.network, net::ConditionSpec{});
  // Engaged-but-default still round-trips with the section present.
  const ScenarioSpec reparsed = parse_or_die(spec.to_json_string());
  EXPECT_TRUE(reparsed.network.has_value());
  EXPECT_EQ(reparsed, spec);
}

TEST(NetworkSection, AbsentSectionStaysAbsentThroughSerialisation) {
  const ScenarioSpec spec = parse_or_die(R"({"name":"plain"})");
  EXPECT_FALSE(spec.network.has_value());
  EXPECT_EQ(spec.to_json_string().find("\"network\""), std::string::npos);
}

TEST(NetworkSection, ConditionBuiltinsCarrySectionsAndValidate) {
  for (const char* name : {"geo-zones", "flaky-links", "zone-partition"}) {
    const auto spec = ScenarioSpec::builtin(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_TRUE(spec->network.has_value()) << name;
    EXPECT_EQ(ScenarioSpec::validate(*spec), std::nullopt) << name;
    // And the engine accepts the derived config.
    EXPECT_TRUE(CampaignEngine::create(spec->to_campaign_config()).has_value())
        << name;
  }
}

}  // namespace
}  // namespace ipfs::scenario
