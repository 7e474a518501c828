#include "scenario/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "runtime/parallel.hpp"
#include "scenario/campaign.hpp"

namespace ipfs::scenario {
namespace {

ScenarioSpec parse_or_die(const std::string& text) {
  auto spec = ScenarioSpec::from_json(text);
  EXPECT_TRUE(spec.has_value()) << spec.error();
  return spec.value_or(ScenarioSpec{});
}

// ---- round-tripping ---------------------------------------------------------

TEST(ScenarioSpec, RoundTripIdentityForEveryBuiltin) {
  for (const ScenarioSpec& spec : ScenarioSpec::builtins()) {
    const std::string text = spec.to_json_string();
    const ScenarioSpec reparsed = parse_or_die(text);
    EXPECT_EQ(reparsed, spec) << spec.name;
    // And serialisation is deterministic: a second trip is byte-identical.
    EXPECT_EQ(reparsed.to_json_string(), text) << spec.name;
  }
}

TEST(ScenarioSpec, RoundTripPreservesEveryField) {
  ScenarioSpec spec;
  spec.name = "custom";
  spec.description = "all fields set to non-default values";
  spec.period.name = "CUSTOM";
  spec.period.dates = "2026-01-01 - 2026-01-02";
  spec.period.duration = 36 * common::kHour + 123;
  spec.period.go_ipfs_mode = dht::Mode::kClient;
  spec.period.go_low_water = 111;
  spec.period.go_high_water = 222;
  spec.period.hydra_heads = 5;
  spec.period.hydra_low_water = 333;
  spec.period.hydra_high_water = 444;
  spec.population.scale = 0.1234567890123456;  // must not lose precision
  spec.population.counts.core_servers = 7;
  spec.population.counts.nat_group_max = 12;
  CategoryParams crawler = default_params(Category::kCrawler);
  crawler.session = SessionKind::kRecurring;
  crawler.mean_session = 90 * common::kMinute;
  crawler.mean_gap = 5 * common::kMinute;
  crawler.queries_per_hour = 17.25;
  spec.population.set_override(Category::kCrawler, crawler);
  spec.campaign.seed = 0xdeadbeefcafef00dULL;  // needs full 64-bit precision
  spec.campaign.trials = 3;
  spec.campaign.workers = 2;
  spec.campaign.vantage_visibility = 0.87;
  spec.campaign.enable_crawler = false;
  spec.campaign.crawl_interval = 90 * common::kMinute;
  spec.campaign.enable_metadata_dynamics = false;
  spec.campaign.client_dials_per_hour = 123.456;
  spec.output.pretty = false;
  spec.output.include_connections = true;
  spec.output.role_filter = measure::DatasetRole::kVantage;

  const ScenarioSpec reparsed = parse_or_die(spec.to_json_string());
  EXPECT_EQ(reparsed, spec);
}

TEST(ScenarioSpec, AbsentFieldsKeepDefaults) {
  const ScenarioSpec minimal = parse_or_die(R"({"name":"tiny"})");
  const ScenarioSpec defaults = [] {
    ScenarioSpec spec;
    spec.name = "tiny";
    return spec;
  }();
  EXPECT_EQ(minimal, defaults);
}

TEST(ScenarioSpec, CategoryOverrideFieldsDefaultToCalibratedValues) {
  const ScenarioSpec spec = parse_or_die(R"({
    "name": "partial-override",
    "population": {"categories": {"crawler": {"queries_per_hour": 9.5}}}
  })");
  const CategoryParams& params = spec.population.params(Category::kCrawler);
  EXPECT_DOUBLE_EQ(params.queries_per_hour, 9.5);
  // Every other field stays at the calibrated default.
  const CategoryParams& defaults = default_params(Category::kCrawler);
  EXPECT_EQ(params.session, defaults.session);
  EXPECT_EQ(params.query_duration_median, defaults.query_duration_median);
  EXPECT_EQ(params.crawl_visibility, defaults.crawl_visibility);
}

// ---- validation -------------------------------------------------------------

struct RejectionCase {
  const char* label;
  const char* document;
  const char* expected_error;  ///< the full error, byte for byte
};

TEST(ScenarioSpec, RejectsInvalidSpecs) {
  const RejectionCase cases[] = {
      {"empty name", R"({"name":""})", "name must be non-empty"},
      {"negative duration", R"({"name":"x","period":{"duration_ms":-5}})",
       "period duration must be positive"},
      {"zero duration", R"({"name":"x","period":{"duration_ms":0}})",
       "period duration must be positive"},
      {"zero trials", R"({"name":"x","campaign":{"trials":0}})",
       "campaign.trials must be >= 1"},
      {"unknown category",
       R"({"name":"x","population":{"categories":{"warthog":{}}}})",
       "population.categories: unknown category name 'warthog'"},
      {"unknown top-level field", R"({"name":"x","perod":{}})",
       "document: unknown field 'perod'"},
      {"unknown period field", R"({"name":"x","period":{"duration_hours":1}})",
       "period: unknown field 'duration_hours'"},
      {"inverted watermarks",
       R"({"name":"x","period":{"go_ipfs":{"low_water":10,"high_water":5}}})",
       "go-ipfs watermarks must satisfy 0 <= LowWater <= HighWater"},
      {"negative scale", R"({"name":"x","population":{"scale":-1}})",
       "population scale must be positive"},
      {"zero scale", R"({"name":"x","population":{"scale":0}})",
       "population scale must be positive"},
      {"bad session kind",
       R"({"name":"x","population":{"categories":{"crawler":{"session":"sometimes"}}}})",
       "population.categories.crawler.session: expected \"always-on\", "
       "\"recurring\" or \"one-shot\""},
      {"probability out of range",
       R"({"name":"x","population":{"categories":{"crawler":{"maintain_probability":1.5}}}})",
       "population.categories.crawler: maintain_probability must be in [0, "
       "1]"},
      {"negative mean session",
       R"({"name":"x","population":{"categories":{"crawler":{"mean_session_ms":-1}}}})",
       "population.categories.crawler: mean_session_ms must be >= 0"},
      {"nat group bounds",
       R"({"name":"x","population":{"counts":{"nat_group_min":6,"nat_group_max":2}}})",
       "population.counts: nat_group_max must be >= nat_group_min"},
      {"storm exceeds light servers",
       R"({"name":"x","population":{"counts":{"light_servers":5,"disguised_storm":6}}})",
       "population.counts: disguised_storm cannot exceed light_servers"},
      {"unknown role filter",
       R"({"name":"x","output":{"role_filter":"everything"}})",
       "output.role_filter: unknown dataset role 'everything'"},
      {"vantage-less campaign",
       R"({"name":"x","period":{"go_ipfs":{"present":false},"hydra":{"heads":0}}})",
       "campaign needs at least one vantage (go-ipfs or hydra heads)"},
      {"visibility above one", R"({"name":"x","campaign":{"vantage_visibility":1.5}})",
       "vantage_visibility must be in (0, 1]"},
      {"string where number expected",
       R"({"name":"x","period":{"duration_ms":"3d"}})",
       "period.duration_ms: expected an integer number of milliseconds"},
      {"syntax error", R"({"name":)", "1:9: unexpected end of input"},
      {"duplicate top-level field", R"({"name":"x","name":"y"})",
       "document: duplicate field 'name'"},
      {"duplicate campaign field",
       R"({"name":"x","campaign":{"seed":1,"seed":2}})",
       "campaign: duplicate field 'seed'"},
      {"duplicate category override",
       R"({"name":"x","population":{"categories":{"normal-user":{},
                                                  "normal-user":{}}}})",
       "population.categories.normal-user: duplicate category override"},
  };
  for (const RejectionCase& test_case : cases) {
    const auto spec = ScenarioSpec::from_json(test_case.document);
    ASSERT_FALSE(spec.has_value()) << test_case.label;
    EXPECT_EQ(spec.error(), test_case.expected_error) << test_case.label;
  }
}

// ---- preset equivalence -----------------------------------------------------

TEST(ScenarioSpec, CompiledPresetsAreThinWrappersOverBuiltins) {
  EXPECT_EQ(PeriodSpec::P0(), ScenarioSpec::builtin("p0")->period);
  EXPECT_EQ(PeriodSpec::P1(), ScenarioSpec::builtin("p1")->period);
  EXPECT_EQ(PeriodSpec::P2(), ScenarioSpec::builtin("p2")->period);
  EXPECT_EQ(PeriodSpec::P3(), ScenarioSpec::builtin("p3")->period);
  EXPECT_EQ(PeriodSpec::P4(), ScenarioSpec::builtin("p4")->period);
  EXPECT_EQ(PeriodSpec::Long14d(), ScenarioSpec::builtin("long14d")->period);
}

TEST(ScenarioSpec, DefaultCampaignConfigMatchesP4Builtin) {
  // CampaignConfig's defaults and the p4 builtin describe the same run.
  const CampaignConfig defaults;
  const CampaignConfig from_spec = ScenarioSpec::builtin("p4")->to_campaign_config();
  EXPECT_EQ(from_spec.period, defaults.period);
  EXPECT_EQ(from_spec.population, defaults.population);
  EXPECT_EQ(from_spec.seed, defaults.seed);
  EXPECT_EQ(from_spec.vantage_visibility, defaults.vantage_visibility);
  EXPECT_EQ(from_spec.enable_crawler, defaults.enable_crawler);
  EXPECT_EQ(from_spec.crawl_interval, defaults.crawl_interval);
  EXPECT_EQ(from_spec.enable_metadata_dynamics, defaults.enable_metadata_dynamics);
  EXPECT_EQ(from_spec.client_dials_per_hour, defaults.client_dials_per_hour);
}

TEST(ScenarioSpec, TrialSeedsAreSequentialFromBase) {
  ScenarioSpec spec = *ScenarioSpec::builtin("p1");
  spec.campaign.seed = 100;
  spec.campaign.trials = 4;
  EXPECT_EQ(spec.trial_seeds(), (std::vector<std::uint64_t>{100, 101, 102, 103}));
}

TEST(ScenarioSpec, BuiltinLookup) {
  EXPECT_TRUE(ScenarioSpec::builtin("nat-heavy").has_value());
  EXPECT_TRUE(ScenarioSpec::builtin("crawler-storm").has_value());
  EXPECT_TRUE(ScenarioSpec::builtin("weekend-diurnal").has_value());
  EXPECT_FALSE(ScenarioSpec::builtin("p9").has_value());
  for (const ScenarioSpec& spec : ScenarioSpec::builtins()) {
    EXPECT_EQ(ScenarioSpec::validate(spec), std::nullopt) << spec.name;
  }
}

// ---- checked-in files -------------------------------------------------------

const std::string kScenarioDir = std::string(IPFS_SOURCE_DIR) + "/scenarios/";

std::string scenario_file_name(const ScenarioSpec& spec) {
  std::string file = spec.name;
  for (char& c : file) {
    if (c == '-') c = '_';
  }
  return file + ".json";
}

TEST(ScenarioSpec, BuiltinsAreExactlyTheCheckedInFiles) {
  // A stale embedded copy, or a scenario whose name does not match its
  // file, shows up as a count or name mismatch.
  std::set<std::string> on_disk;
  for (const auto& entry : std::filesystem::directory_iterator(kScenarioDir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      on_disk.insert(entry.path().filename().string());
    }
  }
  std::set<std::string> embedded;
  for (const ScenarioSpec& spec : ScenarioSpec::builtins()) {
    EXPECT_TRUE(embedded.insert(scenario_file_name(spec)).second)
        << "two builtins named " << spec.name;
  }
  EXPECT_EQ(ScenarioSpec::builtins().size(), on_disk.size());
  EXPECT_EQ(embedded, on_disk);
}

TEST(ScenarioSpec, CheckedInFilesMatchBuiltinsByteForByte) {
  // The builtins are the files, so this pins each file to its canonical
  // form: what the spec writes back out is exactly what is checked in.
  for (const ScenarioSpec& spec : ScenarioSpec::builtins()) {
    const std::string path = kScenarioDir + scenario_file_name(spec);
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing " << path;
    std::ostringstream contents;
    contents << in.rdbuf();
    EXPECT_EQ(contents.str(), spec.to_json_string())
        << path << " is not in canonical form (rewrite it with: ipfs_sim "
        << "export " << spec.name << " --out " << path << ")";
  }
}

// ---- campaign equivalence ---------------------------------------------------

std::string run_to_json(const CampaignConfig& config) {
  auto engine = CampaignEngine::create(config);
  EXPECT_TRUE(engine.has_value()) << engine.error();
  std::ostringstream out;
  measure::JsonExportSink sink(out);
  engine->run(sink);
  return out.str();
}

TEST(ScenarioSpec, SpecCampaignOutputByteIdenticalToCompiledPresets) {
  // The acceptance check of the scenario layer: running scenarios/pN.json
  // (here: its builtin, which is that file compiled in) produces exactly
  // what the compiled preset produces.
  const struct {
    const char* builtin_name;
    PeriodSpec (*preset)();
  } periods[] = {
      {"p0", &PeriodSpec::P0}, {"p1", &PeriodSpec::P1}, {"p2", &PeriodSpec::P2},
      {"p3", &PeriodSpec::P3}, {"p4", &PeriodSpec::P4},
  };
  constexpr double kScale = 0.002;  // keep the five runs test-sized
  for (const auto& period : periods) {
    ScenarioSpec spec = *ScenarioSpec::builtin(period.builtin_name);
    spec.population.scale = kScale;

    CampaignConfig preset;
    preset.period = period.preset();
    preset.population = PopulationSpec::test_scale(kScale);

    const std::string from_spec = run_to_json(spec.to_campaign_config());
    const std::string from_preset = run_to_json(preset);
    ASSERT_FALSE(from_spec.empty()) << period.builtin_name;
    EXPECT_EQ(from_spec, from_preset) << period.builtin_name;
  }
}

TEST(ScenarioSpec, MultiTrialSweepMatchesSequentialLoop) {
  // ipfs_sim's multi-trial path: ParallelTrialRunner over the spec's seeds
  // must byte-match running each seed sequentially.
  ScenarioSpec spec = *ScenarioSpec::builtin("p1");
  spec.population.scale = 0.002;
  spec.campaign.trials = 2;
  spec.campaign.workers = 2;

  std::ostringstream sequential;
  for (const std::uint64_t seed : spec.trial_seeds()) {
    CampaignConfig config = spec.to_campaign_config();
    config.seed = seed;
    measure::JsonExportSink sink(sequential);
    auto engine = CampaignEngine::create(config);
    ASSERT_TRUE(engine.has_value()) << engine.error();
    engine->run(sink);
  }

  std::ostringstream parallel;
  measure::JsonExportSink sink(parallel);
  runtime::ParallelTrialRunner runner({.workers = spec.campaign.workers});
  auto outcome = runner.run(
      runtime::ParallelTrialRunner::seed_sweep(spec.to_campaign_config(),
                                               spec.trial_seeds()),
      sink);
  ASSERT_TRUE(outcome.has_value()) << outcome.error();
  EXPECT_EQ(parallel.str(), sequential.str());
}

}  // namespace
}  // namespace ipfs::scenario
