// ipfs_sim — the declarative scenario driver (DESIGN.md §8).
//
// Runs measurement campaigns described by `scenario::ScenarioSpec` JSON
// files (docs/SCENARIOS.md) without recompiling anything, fits churn to a
// measured trace (`calibrate`, DESIGN.md §15) and prints the paper's
// tables and figures (`reproduce`, tools/reproduce.cpp).  `ipfs_sim help`
// lists every command and option: each command declares its operands and
// options once, in `kCommands` below, and one loop parses them all.
//
// Single-trial runs execute on a `scenario::CampaignEngine` directly
// (through `runtime::ShardedCampaignRunner` when --shards is given);
// multi-trial sweeps go through `runtime::ParallelTrialRunner`, whose
// merged output is byte-identical to the sequential loop at any worker
// count — with --shards, each trial's engine additionally fans its
// population across shards, still without moving a byte.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "analysis/calibration.hpp"
#include "common/atomic_output.hpp"
#include "common/parse.hpp"
#include "common/sim_time.hpp"
#include "measure/sink.hpp"
#include "runtime/parallel.hpp"
#include "runtime/sharded.hpp"
#include "runtime/testbed.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"

namespace ipfs::tools {
/// tools/reproduce.cpp: print the named paper sections (all when `sections`
/// is empty) to stdout.  Returns the exit code; 2 names an unknown section.
int reproduce(double scale, std::uint64_t seed,
              const std::vector<std::string>& sections);
/// tools/reproduce.cpp: every section name, in the order a full
/// reproduction prints them.
std::vector<std::string_view> reproduce_sections();
}  // namespace ipfs::tools

namespace {

namespace fs = std::filesystem;
using ipfs::common::AtomicOutput;
using ipfs::common::SimDuration;
using ipfs::measure::JsonExportSink;
using ipfs::measure::MeasurementSink;
using ipfs::runtime::ParallelTrialRunner;
using ipfs::scenario::CampaignEngine;
using ipfs::scenario::ScenarioSpec;

/// Everything an `ipfs_sim` command line can set.  Each option writes one
/// member; an empty member means the option was not given.
struct Args {
  std::vector<std::string> operands;
  std::optional<std::string> out;
  std::optional<std::string> report;
  std::optional<std::string> name;
  std::optional<std::uint32_t> workers;
  std::optional<std::uint32_t> trials;
  std::optional<std::uint32_t> shards;
  std::optional<std::uint32_t> shard_workers;
  std::optional<std::uint64_t> seed;
  std::optional<double> scale;
  std::optional<double> verify_scale;
  std::optional<double> ks_threshold;
  std::optional<SimDuration> duration;
  std::optional<SimDuration> gap;
  bool quiet = false;
  bool no_verify = false;
};

// Strict option parsing (common/parse.hpp): the whole token must parse,
// negatives / trailing garbage / inf / overflow are rejected, and the
// error names the option — "--shards: trailing characters after number:
// '4x'" instead of a silently truncated value or a misleading "unknown
// option".

std::optional<std::uint32_t> option_u32(const char* command,
                                        const std::string& option,
                                        const std::string& text) {
  const auto parsed = ipfs::common::parse_u64(text);
  if (!parsed) {
    std::cerr << command << ": " << option << ": " << parsed.error() << "\n";
    return std::nullopt;
  }
  if (*parsed > std::numeric_limits<std::uint32_t>::max()) {
    std::cerr << command << ": " << option << ": out of range: '" << text
              << "'\n";
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(*parsed);
}

std::optional<std::uint64_t> option_u64(const char* command,
                                        const std::string& option,
                                        const std::string& text) {
  const auto parsed = ipfs::common::parse_u64(text);
  if (!parsed) {
    std::cerr << command << ": " << option << ": " << parsed.error() << "\n";
    return std::nullopt;
  }
  return *parsed;
}

std::optional<double> option_positive(const char* command,
                                      const std::string& option,
                                      const std::string& text) {
  const auto parsed = ipfs::common::parse_finite_double(text);
  if (!parsed) {
    std::cerr << command << ": " << option << ": " << parsed.error() << "\n";
    return std::nullopt;
  }
  if (*parsed <= 0.0) {
    std::cerr << command << ": " << option << ": must be > 0, got '" << text
              << "'\n";
    return std::nullopt;
  }
  return *parsed;
}

/// A positive span in seconds, converted to simulated milliseconds.  Spans
/// that do not fit a SimDuration are rejected before the conversion, which
/// would otherwise be undefined.
std::optional<SimDuration> option_seconds(const char* command,
                                          const std::string& option,
                                          const std::string& text) {
  const auto seconds = option_positive(command, option, text);
  if (!seconds) return std::nullopt;
  constexpr auto kLimit =
      static_cast<double>(std::numeric_limits<SimDuration>::max());
  if (*seconds * static_cast<double>(ipfs::common::kSecond) >= kLimit) {
    std::cerr << command << ": " << option << ": out of range: '" << text
              << "'\n";
    return std::nullopt;
  }
  return ipfs::common::from_seconds(*seconds);
}

/// Read an option's `text` into `out` with the reader for its type.
template <typename T>
bool read_value(const char* command, const std::string& option,
                const std::string& text, std::optional<T>& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    out = option_u32(command, option, text);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    out = option_u64(command, option, text);
  } else if constexpr (std::is_same_v<T, double>) {
    out = option_positive(command, option, text);
  } else {
    static_assert(std::is_same_v<T, SimDuration>);
    out = option_seconds(command, option, text);
  }
  return out.has_value();
}

/// Flush stdout; on failure print "COMMAND: error writing stdout" and
/// return false, so a full pipe or disk never passes for success.
bool flush_stdout(const char* command) {
  std::cout.flush();
  if (std::cout) return true;
  std::cerr << command << ": error writing stdout\n";
  return false;
}

/// A SCENARIO argument: an existing file path, else a builtin name.
std::optional<ScenarioSpec> load_scenario(const std::string& ref,
                                          std::string& error) {
  if (fs::exists(ref)) {
    auto spec = ScenarioSpec::from_file(ref);
    if (!spec) {
      error = spec.error();
      return std::nullopt;
    }
    return *spec;
  }
  if (auto spec = ScenarioSpec::builtin(ref)) return spec;
  error = ref + ": no such file and not a builtin scenario (see ipfs_sim list)";
  return std::nullopt;
}

/// Write `text` to the file at `path` through an AtomicOutput, so a full
/// disk fails loudly and a failed write leaves any previous file in place.
/// On failure prints "COMMAND: ..." naming the path and returns false.
bool write_file(const char* command, const std::string& path,
                const std::string& text) {
  AtomicOutput out(path);
  if (!out.is_open()) {
    std::cerr << command << ": cannot open " << path << " for writing\n";
    return false;
  }
  out.stream() << text;
  if (!out.commit()) {
    std::cerr << command << ": error writing " << path << "\n";
    return false;
  }
  return true;
}

// ---- list -------------------------------------------------------------------

int cmd_list(const Args& args) {
  std::cout << "builtin scenarios:\n";
  for (const ScenarioSpec& spec : ScenarioSpec::builtins()) {
    // Flag workloads that reshape the fabric (DESIGN.md §9), animate a
    // peer lifecycle (§10), route content (§11), or vary over time (§14).
    std::cout << "  " << spec.name << (spec.network ? "  [conditions]" : "")
              << (spec.churn ? "  [churn]" : "")
              << (spec.content ? "  [content]" : "")
              << (spec.phases ? "  [phases]" : "") << "\n      "
              << spec.description << "\n";
  }
  const std::string dir = args.operands.empty() ? "scenarios" : args.operands[0];
  if (!fs::is_directory(dir)) {
    if (!args.operands.empty()) {
      std::cerr << "ipfs_sim list: " << dir << " is not a directory\n";
      return 1;
    }
    return 0;
  }
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::cout << "\nscenario files in " << dir << "/:\n";
  for (const fs::path& file : files) {
    auto spec = ScenarioSpec::from_file(file.string());
    if (spec) {
      std::cout << "  " << file.string() << "  (" << spec->name << ")\n";
    } else {
      std::cout << "  " << file.string() << "  [invalid: " << spec.error() << "]\n";
    }
  }
  return 0;
}

// ---- validate ---------------------------------------------------------------

int cmd_validate(const Args& args) {
  int failures = 0;
  for (const std::string& path : args.operands) {
    auto spec = ScenarioSpec::from_file(path);
    if (spec) {
      std::cout << "OK    " << path << "  (" << spec->name << ", "
                << spec->campaign.trials
                << (spec->campaign.trials == 1 ? " trial)" : " trials)") << "\n";
    } else {
      std::cout << "FAIL  " << spec.error() << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

// ---- run --------------------------------------------------------------------

/// Streams a short progress line per published event to stderr.
class ProgressSink final : public MeasurementSink {
 public:
  void on_run_begin(const std::string& description) override {
    std::cerr << "== " << description << "\n";
  }
  void on_crawl(const ipfs::measure::CrawlObservation& crawl) override {
    ++crawls_;
    (void)crawl;
  }
  void on_population(const ipfs::measure::PopulationSample& sample) override {
    ++population_samples_;
    (void)sample;
  }
  void on_provide(const ipfs::measure::ProvideSample& sample) override {
    ++provides_;
    (void)sample;
  }
  void on_fetch(const ipfs::measure::FetchSample& sample) override {
    ++fetches_;
    (void)sample;
  }
  void on_content(const ipfs::measure::ContentSample& sample) override {
    ++content_samples_;
    (void)sample;
  }
  void on_dataset(ipfs::measure::DatasetRole role,
                  ipfs::measure::Dataset dataset) override {
    std::cerr << "   dataset " << ipfs::measure::to_string(role) << " ("
              << dataset.vantage << "): " << dataset.peer_count() << " peers, "
              << dataset.connection_count() << " connections\n";
  }
  void on_run_end(const ipfs::measure::RunSummary& summary) override {
    std::cerr << "   population " << summary.population_size << ", "
              << summary.events_executed << " events, " << crawls_
              << " crawl snapshots";
    if (population_samples_ > 0) {
      std::cerr << ", " << population_samples_ << " churn population samples";
    }
    if (provides_ > 0 || fetches_ > 0) {
      std::cerr << ", " << provides_ << " provides, " << fetches_
                << " fetches, " << content_samples_ << " record samples";
    }
    std::cerr << "\n";
    crawls_ = 0;
    population_samples_ = 0;
    provides_ = 0;
    fetches_ = 0;
    content_samples_ = 0;
  }

 private:
  std::size_t crawls_ = 0;
  std::size_t population_samples_ = 0;
  std::size_t provides_ = 0;
  std::size_t fetches_ = 0;
  std::size_t content_samples_ = 0;
};

int cmd_run(const Args& args) {
  if (args.shard_workers.value_or(0) != 0 && !args.shards) {
    std::cerr << "ipfs_sim run: --shard-workers needs --shards\n";
    return 2;
  }

  std::string error;
  auto loaded = load_scenario(args.operands[0], error);
  if (!loaded) {
    std::cerr << "ipfs_sim run: " << error << "\n";
    return 1;
  }
  ScenarioSpec spec = std::move(*loaded);
  if (args.workers) spec.campaign.workers = *args.workers;
  if (args.trials) spec.campaign.trials = *args.trials;
  if (args.seed) spec.campaign.seed = *args.seed;
  if (args.scale) spec.population.scale = *args.scale;
  if (args.duration) spec.period.duration = *args.duration;
  if (auto invalid = ScenarioSpec::validate(spec)) {
    std::cerr << "ipfs_sim run: " << *invalid << "\n";
    return 1;
  }

  // A file target is replaced only once the run completes: an interrupted
  // or failed run leaves the previous export where it was.
  std::optional<AtomicOutput> file_out;
  if (args.out) {
    file_out.emplace(*args.out);
    if (!file_out->is_open()) {
      std::cerr << "ipfs_sim run: cannot open " << *args.out << " for writing\n";
      return 1;
    }
  }
  std::ostream& data_out = file_out ? file_out->stream() : std::cout;

  JsonExportSink export_sink(data_out, spec.output.export_options());
  ProgressSink progress;
  ipfs::measure::FanOutSink sink;
  // The progress line for each dataset goes out before its export.  Each
  // sink gets a handle on shared storage, so the order copies nothing.
  if (!args.quiet) sink.add(progress);
  sink.add(export_sink);

  if (!args.quiet) {
    std::cerr << "scenario " << spec.name << ": " << spec.campaign.trials
              << (spec.campaign.trials == 1 ? " trial" : " trials") << ", scale "
              << spec.population.scale << ", seed " << spec.campaign.seed << "\n";
  }

  // --shards resolves to a ShardPlan through the sharded runner, so the
  // default (0 -> one shard per core) lives in one place.
  ipfs::runtime::ShardedCampaignRunner::Options shard_options;
  if (args.shards) {
    shard_options.shards = *args.shards;
    shard_options.workers = args.shard_workers.value_or(0);
  }

  const auto start = std::chrono::steady_clock::now();
  if (spec.campaign.trials == 1) {
    if (args.shards) {
      ipfs::runtime::ShardedCampaignRunner runner(shard_options);
      auto outcome = runner.run(spec.to_campaign_config(), sink);
      if (!outcome) {
        std::cerr << "ipfs_sim run: " << outcome.error() << "\n";
        return 1;
      }
    } else {
      auto engine = CampaignEngine::create(spec.to_campaign_config());
      if (!engine) {
        std::cerr << "ipfs_sim run: " << engine.error() << "\n";
        return 1;
      }
      engine->run(sink);
    }
  } else {
    const auto seeds = spec.trial_seeds();
    ParallelTrialRunner::Options options;
    options.workers = spec.campaign.workers;
    ParallelTrialRunner runner(options);
    auto base = spec.to_campaign_config();
    if (args.shards) {
      // Each trial's engine shards its population; auto worker counts
      // lease from the same process budget the trial pool draws on, so
      // trials x shards never oversubscribes the machine.
      base.sharding =
          ipfs::runtime::ShardedCampaignRunner(shard_options).resolve_plan();
    }
    auto outcome =
        runner.run(ParallelTrialRunner::seed_sweep(std::move(base), seeds), sink);
    if (!outcome) {
      std::cerr << "ipfs_sim run: " << outcome.error() << "\n";
      return 1;
    }
  }
  data_out.flush();
  if (file_out ? !file_out->commit() : !data_out) {
    std::cerr << "ipfs_sim run: error writing "
              << args.out.value_or("stdout") << "\n";
    return 1;
  }
  if (!args.quiet) {
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start);
    std::cerr << "done in " << elapsed.count() << " s ("
              << export_sink.exported_count() << " datasets exported";
    if (args.out) std::cerr << " to " << *args.out;
    std::cerr << ")\n";
  }
  return 0;
}

// ---- export -----------------------------------------------------------------

int cmd_export(const Args& args) {
  constexpr const char* kCommand = "ipfs_sim export";
  const std::string& name = args.operands[0];
  const auto spec = ScenarioSpec::builtin(name);
  if (!spec) {
    std::cerr << "ipfs_sim export: no builtin named '" << name << "'\n";
    return 1;
  }
  if (!args.out) {
    std::cout << spec->to_json_string();
    return flush_stdout(kCommand) ? 0 : 1;
  }
  if (!write_file(kCommand, *args.out, spec->to_json_string())) return 1;
  std::cout << "wrote " << *args.out << "\n";
  return 0;
}

// ---- calibrate --------------------------------------------------------------

int cmd_calibrate(const Args& args) {
  constexpr const char* kCommand = "ipfs_sim calibrate";
  const std::string& trace_path = args.operands[0];
  ipfs::analysis::calibrate::Options options;
  options.max_gap = args.gap.value_or(options.max_gap);
  options.name = args.name.value_or(options.name);
  options.seed = args.seed.value_or(options.seed);
  options.verify_scale = args.verify_scale.value_or(options.verify_scale);
  options.ks_threshold = args.ks_threshold.value_or(options.ks_threshold);
  options.verify = !args.no_verify;

  std::ifstream in(trace_path, std::ios::binary);
  if (!in) {
    std::cerr << "ipfs_sim calibrate: cannot read " << trace_path << "\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string trace_text = buffer.str();

  const auto result = ipfs::analysis::calibrate::run(trace_text, options);
  if (!result) {
    std::cerr << "ipfs_sim calibrate: " << trace_path << ": " << result.error()
              << "\n";
    return 2;
  }

  if (!args.quiet) {
    const auto& measured = result->measured;
    std::cerr << "== calibrate " << trace_path << " (vantage '"
              << result->trace.vantage << "')\n"
              << "   " << result->trace.peer_count() << " peers, "
              << result->trace.connection_count() << " connections -> "
              << measured.session_count << " sessions ("
              << measured.censored_sessions << " censored)\n";
    for (const auto& [name, group] : result->groups) {
      std::cerr << "   " << name << ": session="
                << (group.session.any_ok() ? group.session.selected : "none")
                << " gap="
                << (group.gap.any_ok() ? group.gap.selected : "none") << "\n";
    }
    if (result->loop.ran) {
      std::cerr << "   closed loop: " << result->loop.simulated_sessions
                << " re-simulated sessions, KS " << result->loop.ks
                << " (threshold " << result->loop.threshold << ") -> "
                << (result->loop.pass ? "pass" : "FAIL") << "\n";
    }
  }

  if (args.out) {
    if (!write_file(kCommand, *args.out, result->scenario.to_json_string())) {
      return 1;
    }
  } else {
    std::cout << result->scenario.to_json_string();
    if (!flush_stdout(kCommand)) return 1;
  }
  if (args.report && !write_file(kCommand, *args.report, result->report_json())) {
    return 1;
  }
  if (result->loop.ran && !result->loop.pass) {
    // The loop compares every reconstructed session: the "all" group.
    std::cerr << "ipfs_sim calibrate: closed-loop KS " << result->loop.ks
              << " exceeds threshold " << result->loop.threshold
              << " (group all: at session length " << result->loop.ks_length_ms
              << " ms, measured CDF " << result->loop.measured_cdf
              << ", simulated CDF " << result->loop.simulated_cdf << ")\n";
    return 1;
  }
  return 0;
}

// ---- reproduce --------------------------------------------------------------

int cmd_reproduce(const Args& args) {
  return ipfs::tools::reproduce(args.scale.value_or(1.0),
                                args.seed.value_or(20211203), args.operands);
}

// ---- selftest ---------------------------------------------------------------

int cmd_selftest(const Args& /*args*/) {
  // A miniature testbed experiment through the runtime facade: one
  // instrumented vantage, a small bootstrapped population, 30 simulated
  // minutes.  Exercises the build end-to-end without a scenario file.
  namespace runtime = ipfs::runtime;
  namespace node = ipfs::node;
  auto testbed = runtime::TestbedBuilder().seed(42).build();
  auto vantage = testbed.add_server(node::NodeConfig::dht_server(8, 12));
  auto& recorder = vantage.attach_recorder();
  testbed.add_servers(6).add_clients(4).bootstrap_all_via(vantage);
  testbed.run_for(30 * ipfs::common::kMinute);
  recorder.finish();
  const auto dataset = recorder.take_dataset();
  std::cout << "selftest: " << testbed.node_count() << " nodes, "
            << dataset.peer_count() << " observed peers, "
            << dataset.connection_count() << " connections, "
            << testbed.simulation().executed_events() << " events\n";
  if (dataset.peer_count() == 0) {
    std::cerr << "selftest: vantage observed nothing — build is broken\n";
    return 1;
  }
  std::cout << "selftest passed\n";
  return 0;
}

// ---- the command tables -----------------------------------------------------

/// Where an option's value goes.  The member's type is the option's kind:
/// a flag, a string, a u32 or u64 integer, a number > 0, or a span in
/// seconds; `read_value` picks the reader.
using Target = std::variant<bool Args::*, std::optional<std::string> Args::*,
                            std::optional<std::uint32_t> Args::*,
                            std::optional<std::uint64_t> Args::*,
                            std::optional<double> Args::*,
                            std::optional<SimDuration> Args::*>;

struct Option {
  std::string_view name;         ///< "--out"
  std::string_view placeholder;  ///< "FILE"; empty for a flag
  std::string_view help;         ///< one line
  Target target;
};

/// `max_operands` of a command that takes any number of operands.
constexpr std::size_t kMany = std::numeric_limits<std::size_t>::max();

struct Command {
  std::string_view name;
  std::string_view operand{};  ///< "SCENARIO"; empty when none is taken
  std::size_t min_operands = 0;
  std::size_t max_operands = 0;
  int (*handler)(const Args&) = nullptr;
  std::vector<std::string_view> help;
  std::vector<Option> options{};
  /// The operand's choices, which usage() lists after `help`; null when
  /// the operand is free-form.
  std::vector<std::string_view> (*operand_values)() = nullptr;
};

const std::vector<Command> kCommands = {
    {.name = "list", .operand = "DIR", .max_operands = 1, .handler = cmd_list,
     .help = {"list builtin scenarios and *.json in DIR (default ./scenarios)"}},
    {.name = "validate", .operand = "FILE", .min_operands = 1,
     .max_operands = kMany, .handler = cmd_validate,
     .help = {"parse + validate scenario files"}},
    {.name = "run", .operand = "SCENARIO", .min_operands = 1, .max_operands = 1,
     .handler = cmd_run, .help = {"run a scenario file or builtin name"},
     .options = {
         {"--out", "FILE", "write the datasets there (default: stdout)", &Args::out},
         {"--workers", "N", "threads for multi-trial sweeps (0 = hardware)",
          &Args::workers},
         {"--trials", "N", "override the spec's trial count", &Args::trials},
         {"--seed", "S", "override the spec's base seed", &Args::seed},
         {"--scale", "X", "override the population scale", &Args::scale},
         {"--duration", "SECONDS", "override the measured period", &Args::duration},
         {"--shards", "N", "intra-trial population shards (0 = one per core)",
          &Args::shards},
         {"--shard-workers", "N", "shard threads (0 = lease from the worker budget)",
          &Args::shard_workers},
         {"--quiet", "", "no progress summary on stderr", &Args::quiet},
     }},
    {.name = "export", .operand = "NAME", .min_operands = 1, .max_operands = 1,
     .handler = cmd_export, .help = {"write a builtin spec as JSON"},
     .options = {{"--out", "FILE", "destination (default: stdout)", &Args::out}}},
    {.name = "calibrate", .operand = "TRACE", .min_operands = 1, .max_operands = 1,
     .handler = cmd_calibrate,
     .help = {"fit churn to a measured trace and emit a calibrated scenario"},
     .options = {
         {"--out", "FILE", "scenario destination (default: stdout)", &Args::out},
         {"--report", "FILE", "write the JSON fit report there", &Args::report},
         {"--gap", "SECONDS", "session gap threshold (default 1800)", &Args::gap},
         {"--name", "NAME", "emitted scenario name (default calibrated)", &Args::name},
         {"--seed", "S", "scenario and closed-loop seed (default 20211203)",
          &Args::seed},
         {"--verify-scale", "X", "closed-loop population scale (default 0.01)",
          &Args::verify_scale},
         {"--ks-threshold", "D", "closed-loop KS bound (default 0.35)",
          &Args::ks_threshold},
         {"--no-verify", "", "skip the closed-loop re-simulation", &Args::no_verify},
         {"--quiet", "", "no fit summary on stderr", &Args::quiet},
     }},
    {.name = "reproduce", .operand = "SECTION", .max_operands = kMany,
     .handler = cmd_reproduce,
     .help = {"print the paper's tables and figures (default: every section)"},
     .options = {
         {"--scale", "X", "population scale (default 1, the full network)",
          &Args::scale},
         {"--seed", "S", "base seed (default 20211203)", &Args::seed},
     },
     .operand_values = ipfs::tools::reproduce_sections},
    {.name = "selftest", .handler = cmd_selftest,
     .help = {"run a tiny testbed experiment"}},
};

int usage(std::ostream& out, int code) {
  out << "usage: ipfs_sim <command> [args]\n";
  for (const Command& command : kCommands) {
    out << "  " << command.name;
    if (!command.operand.empty()) {
      const bool optional = command.min_operands == 0;
      out << (optional ? " [" : " ") << command.operand
          << (command.max_operands > 1 ? "..." : "") << (optional ? "]" : "");
    }
    out << (command.options.empty() ? "\n" : " [options]\n");
    for (const std::string_view line : command.help) out << "      " << line << "\n";
    if (command.operand_values != nullptr) {
      std::string line = "      " + std::string(command.operand) + " is one of";
      for (const std::string_view value : command.operand_values()) {
        if (line.size() + 1 + value.size() > 72) {
          out << line << "\n";
          line = "     ";
        }
        line.append(" ").append(value);
      }
      out << line << "\n";
    }
    for (const Option& option : command.options) {
      std::string flag(option.name);
      if (!option.placeholder.empty()) flag.append(" ").append(option.placeholder);
      flag.resize(std::max<std::size_t>(flag.size(), 20), ' ');
      out << "        " << flag << " " << option.help << "\n";
    }
  }
  return code;
}

/// Parse `words` against `command`'s table into `args`.  A word that
/// starts with '-' (other than "-" itself) is an option, any other word an
/// operand, in any order; an option's value is the next word, whatever it
/// looks like.  A usage error prints "ipfs_sim COMMAND: ..." and returns
/// false.
bool parse_args(const Command& command, const std::vector<std::string>& words,
                Args& args) {
  const std::string prefix = "ipfs_sim " + std::string(command.name);
  const char* who = prefix.c_str();
  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::string& word = words[i];
    if (word.size() < 2 || word[0] != '-') {
      if (args.operands.size() == command.max_operands) {
        std::cerr << who << ": unexpected argument '" << word << "'\n";
        return false;
      }
      args.operands.push_back(word);
      continue;
    }
    const auto option = std::ranges::find(command.options, word, &Option::name);
    if (option == command.options.end()) {
      std::cerr << who << ": unknown option '" << word << "'\n";
      return false;
    }
    const auto take = [&](auto member) {
      auto& target = args.*member;
      if (target) {
        std::cerr << who << ": " << word << ": given more than once\n";
        return false;
      }
      if constexpr (std::is_same_v<decltype(member), bool Args::*>) {
        return target = true;
      } else if (i + 1 >= words.size()) {
        std::cerr << who << ": " << word << ": missing value\n";
        return false;
      } else {
        return read_value(who, word, words[++i], target);
      }
    };
    if (!std::visit(take, option->target)) return false;
  }
  if (args.operands.size() < command.min_operands) {
    std::cerr << who << ": missing " << command.operand << " argument\n";
    return false;
  }
  return true;
}

int dispatch(const std::string& name, const std::vector<std::string>& words) {
  if (name == "help" || name == "--help" || name == "-h") {
    return usage(std::cout, 0);
  }
  const auto command = std::ranges::find(kCommands, name, &Command::name);
  if (command == kCommands.end()) {
    std::cerr << "ipfs_sim: unknown command '" << name << "'\n";
    return usage(std::cerr, 2);
  }
  Args args;
  if (!parse_args(*command, words, args)) return 2;
  return command->handler(args);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  // A run too large for this host's memory (validation bounds only what a
  // run can index) fails like any other run error; a pending --out file
  // is left untouched.
  try {
    return dispatch(command, args);
  } catch (const std::bad_alloc&) {
    std::cerr << "ipfs_sim " << command << ": out of memory\n";
    return 1;
  }
}
