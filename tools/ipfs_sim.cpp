// ipfs_sim — the declarative scenario driver (DESIGN.md §8).
//
// Runs measurement campaigns described by `scenario::ScenarioSpec` JSON
// files (docs/SCENARIOS.md) without recompiling anything:
//
//   ipfs_sim list [DIR]                 builtin + on-disk scenarios
//   ipfs_sim validate FILE...           parse + validate scenario files
//   ipfs_sim run SCENARIO [options]     execute a scenario
//   ipfs_sim export NAME [--out FILE]   write a builtin spec as JSON
//   ipfs_sim calibrate TRACE [options]  fit a trace, emit a scenario
//   ipfs_sim reproduce [--scale X] [--seed S] [SECTION...]
//                                       the paper's tables and figures
//   ipfs_sim selftest                   tiny runtime::TestbedBuilder check
//
// SCENARIO is a path to a .json file or the name of a builtin ("p4").
// `run` options:
//   --out FILE     write campaign datasets there (default: stdout); a
//                  regular file is replaced only when the run completes
//   --workers N    worker threads for multi-trial sweeps (0 = hardware)
//   --trials N     override the spec's trial count
//   --seed S       override the spec's base seed
//   --scale X      override the population scale (CI smoke runs use this)
//   --duration S   override the measured period, in simulated seconds
//                  (CI smoke runs pair a huge --scale with a short window)
//   --shards N     intra-trial population shards (0 = one per core); the
//                  export is byte-identical at any count (DESIGN.md §13)
//   --shard-workers N
//                  threads driving the shard fan-outs (0 = lease from the
//                  process worker budget, shared with --workers)
//   --quiet        suppress the progress summary on stderr
//
// `reproduce` (tools/reproduce.cpp) prints the paper's Tables I–IV,
// Figs. 2–7, §V-A, the §V size estimate and two ablations next to the
// published values; SECTION names (table1 … ablation-trim) pick some.
// --scale defaults to 1, the full December-2021 network (minutes to hours
// of wall clock); --seed defaults to 20211203.
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
}  // namespace ipfs::tools

namespace {

namespace fs = std::filesystem;
using ipfs::common::AtomicOutput;
using ipfs::measure::JsonExportSink;
using ipfs::measure::MeasurementSink;
using ipfs::runtime::ParallelTrialRunner;
using ipfs::runtime::TrialSpec;
using ipfs::scenario::CampaignEngine;
using ipfs::scenario::ScenarioSpec;

int usage(std::ostream& out, int code) {
  out << "usage: ipfs_sim <command> [args]\n"
         "  list [DIR]               list builtin scenarios and *.json in DIR\n"
         "                           (default ./scenarios when present)\n"
         "  validate FILE...         parse + validate scenario files\n"
         "  run SCENARIO [options]   run a scenario file or builtin name\n"
         "      --out FILE --workers N --trials N --seed S --scale X\n"
         "      --duration SECONDS --shards N --shard-workers N --quiet\n"
         "  export NAME [--out FILE]  write a builtin spec as JSON\n"
         "  calibrate TRACE [options]\n"
         "                           fit churn distributions to a measured\n"
         "                           trace and emit a calibrated scenario\n"
         "      --out FILE           scenario destination (default: stdout)\n"
         "      --report FILE        write the JSON fit report there\n"
         "      --gap SECONDS        session gap threshold (default 1800)\n"
         "      --name NAME          emitted scenario name (default calibrated)\n"
         "      --seed S --verify-scale X --ks-threshold D --no-verify --quiet\n"
         "  reproduce [--scale X] [--seed S] [SECTION...]\n"
         "                           regenerate the paper's tables and figures\n"
         "                           (default: every section, scale 1, seed\n"
         "                           20211203); SECTION is one of table1..table4\n"
         "                           fig2..fig7 sec5a size ablation-hydra\n"
         "                           ablation-trim\n"
         "  selftest                 run a tiny testbed experiment\n";
  return code;
}

// Strict option parsing (common/parse.hpp): the whole token must parse,
// negatives / trailing garbage / inf / overflow are rejected, and the
// error names the option — "--shards: trailing characters after number:
// '4x'" instead of a silently truncated value or a misleading "unknown
// option".

bool option_u32(const char* command, const std::string& option,
                const std::string& text, std::uint32_t& out) {
  const auto parsed = ipfs::common::parse_u64(text);
  if (!parsed) {
    std::cerr << command << ": " << option << ": " << parsed.error() << "\n";
    return false;
  }
  if (*parsed > std::numeric_limits<std::uint32_t>::max()) {
    std::cerr << command << ": " << option << ": out of range: '" << text
              << "'\n";
    return false;
  }
  out = static_cast<std::uint32_t>(*parsed);
  return true;
}

bool option_u64(const char* command, const std::string& option,
                const std::string& text, std::uint64_t& out) {
  const auto parsed = ipfs::common::parse_u64(text);
  if (!parsed) {
    std::cerr << command << ": " << option << ": " << parsed.error() << "\n";
    return false;
  }
  out = *parsed;
  return true;
}

bool option_positive(const char* command, const std::string& option,
                     const std::string& text, double& out) {
  const auto parsed = ipfs::common::parse_finite_double(text);
  if (!parsed) {
    std::cerr << command << ": " << option << ": " << parsed.error() << "\n";
    return false;
  }
  if (*parsed <= 0.0) {
    std::cerr << command << ": " << option << ": must be > 0, got '" << text
              << "'\n";
    return false;
  }
  out = *parsed;
  return true;
}

/// A positive span in seconds, converted to simulated milliseconds.  Spans
/// that do not fit a SimDuration are rejected before the conversion, which
/// would otherwise be undefined.
bool option_seconds(const char* command, const std::string& option,
                    const std::string& text, ipfs::common::SimDuration& out) {
  double seconds = 0.0;
  if (!option_positive(command, option, text, seconds)) return false;
  constexpr auto kLimit =
      static_cast<double>(std::numeric_limits<ipfs::common::SimDuration>::max());
  if (seconds * static_cast<double>(ipfs::common::kSecond) >= kLimit) {
    std::cerr << command << ": " << option << ": out of range: '" << text
              << "'\n";
    return false;
  }
  out = ipfs::common::from_seconds(seconds);
  return true;
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

int cmd_list(const std::vector<std::string>& args) {
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
  const std::string dir = args.empty() ? "scenarios" : args[0];
  if (!fs::is_directory(dir)) {
    if (!args.empty()) {
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

int cmd_validate(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "ipfs_sim validate: no files given\n";
    return 2;
  }
  int failures = 0;
  for (const std::string& path : args) {
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

int cmd_run(const std::vector<std::string>& args) {
  constexpr const char* kCommand = "ipfs_sim run";
  if (args.empty()) {
    std::cerr << "ipfs_sim run: missing SCENARIO argument\n";
    return 2;
  }
  const std::string& ref = args[0];
  std::optional<std::string> out_path;
  std::optional<std::uint32_t> workers_override;
  std::optional<std::uint32_t> trials_override;
  std::optional<std::uint64_t> seed_override;
  std::optional<double> scale_override;
  std::optional<ipfs::common::SimDuration> duration_override;
  std::optional<std::uint32_t> shards;
  std::uint32_t shard_workers = 0;        // 0 = lease from the worker budget
  bool quiet = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--quiet") {
      quiet = true;
      continue;
    }
    const bool takes_value =
        arg == "--out" || arg == "--workers" || arg == "--trials" ||
        arg == "--seed" || arg == "--scale" || arg == "--duration" ||
        arg == "--shards" || arg == "--shard-workers";
    if (!takes_value) {
      std::cerr << "ipfs_sim run: unknown option '" << arg << "'\n";
      return 2;
    }
    if (i + 1 >= args.size()) {
      // A flag at the end of the line used to fall through to "unknown
      // option"; name the real problem.
      std::cerr << "ipfs_sim run: " << arg << ": missing value\n";
      return 2;
    }
    const std::string& value = args[++i];
    if (arg == "--out") {
      out_path = value;
    } else if (arg == "--workers") {
      std::uint32_t workers = 0;
      if (!option_u32(kCommand, arg, value, workers)) return 2;
      workers_override = workers;
    } else if (arg == "--trials") {
      std::uint32_t trials = 0;
      if (!option_u32(kCommand, arg, value, trials)) return 2;
      trials_override = trials;
    } else if (arg == "--seed") {
      std::uint64_t seed = 0;
      if (!option_u64(kCommand, arg, value, seed)) return 2;
      seed_override = seed;
    } else if (arg == "--scale") {
      double scale = 0.0;
      if (!option_positive(kCommand, arg, value, scale)) return 2;
      scale_override = scale;
    } else if (arg == "--duration") {
      ipfs::common::SimDuration duration = 0;
      if (!option_seconds(kCommand, arg, value, duration)) return 2;
      duration_override = duration;
    } else if (arg == "--shards") {
      std::uint32_t count = 0;
      if (!option_u32(kCommand, arg, value, count)) return 2;
      shards = count;
    } else {  // --shard-workers
      if (!option_u32(kCommand, arg, value, shard_workers)) return 2;
    }
  }
  if (shard_workers != 0 && !shards) {
    std::cerr << "ipfs_sim run: --shard-workers needs --shards\n";
    return 2;
  }

  std::string error;
  auto loaded = load_scenario(ref, error);
  if (!loaded) {
    std::cerr << "ipfs_sim run: " << error << "\n";
    return 1;
  }
  ScenarioSpec spec = std::move(*loaded);
  if (workers_override) spec.campaign.workers = *workers_override;
  if (trials_override) spec.campaign.trials = *trials_override;
  if (seed_override) spec.campaign.seed = *seed_override;
  if (scale_override) spec.population.scale = *scale_override;
  if (duration_override) spec.period.duration = *duration_override;
  if (auto invalid = ScenarioSpec::validate(spec)) {
    std::cerr << "ipfs_sim run: " << *invalid << "\n";
    return 1;
  }

  // A file target is replaced only once the run completes: an interrupted
  // or failed run leaves the previous export where it was.
  std::optional<AtomicOutput> file_out;
  if (out_path) {
    file_out.emplace(*out_path);
    if (!file_out->is_open()) {
      std::cerr << "ipfs_sim run: cannot open " << *out_path << " for writing\n";
      return 1;
    }
  }
  std::ostream& data_out = file_out ? file_out->stream() : std::cout;

  JsonExportSink export_sink(data_out, spec.output.export_options());
  ProgressSink progress;
  ipfs::measure::FanOutSink sink;
  // The progress line for each dataset goes out before its export.  Each
  // sink gets a handle on shared storage, so the order copies nothing.
  if (!quiet) sink.add(progress);
  sink.add(export_sink);

  if (!quiet) {
    std::cerr << "scenario " << spec.name << ": " << spec.campaign.trials
              << (spec.campaign.trials == 1 ? " trial" : " trials") << ", scale "
              << spec.population.scale << ", seed " << spec.campaign.seed << "\n";
  }

  // --shards resolves to a ShardPlan through the sharded runner, so the
  // default (0 -> one shard per core) lives in one place.
  ipfs::runtime::ShardedCampaignRunner::Options shard_options;
  if (shards) {
    shard_options.shards = *shards;
    shard_options.workers = shard_workers;
  }

  const auto start = std::chrono::steady_clock::now();
  if (spec.campaign.trials == 1) {
    if (shards) {
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
    if (shards) {
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
              << (out_path ? *out_path : std::string("stdout")) << "\n";
    return 1;
  }
  if (!quiet) {
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start);
    std::cerr << "done in " << elapsed.count() << " s ("
              << export_sink.exported_count() << " datasets exported";
    if (out_path) std::cerr << " to " << *out_path;
    std::cerr << ")\n";
  }
  return 0;
}

// ---- export -----------------------------------------------------------------

int cmd_export(const std::vector<std::string>& args) {
  constexpr const char* kCommand = "ipfs_sim export";
  std::optional<std::string> name;
  std::optional<std::string> out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--out") {
      if (i + 1 >= args.size()) {
        std::cerr << "ipfs_sim export: --out: missing value\n";
        return 2;
      }
      out_path = args[++i];
    } else if (!arg.starts_with("--") && !name) {
      name = arg;
    } else {
      std::cerr << "ipfs_sim export: unknown option '" << arg << "'\n";
      return 2;
    }
  }
  if (!name) {
    std::cerr << "ipfs_sim export: missing NAME argument\n";
    return 2;
  }
  const auto spec = ScenarioSpec::builtin(*name);
  if (!spec) {
    std::cerr << "ipfs_sim export: no builtin named '" << *name << "'\n";
    return 1;
  }
  if (!out_path) {
    std::cout << spec->to_json_string();
    return flush_stdout(kCommand) ? 0 : 1;
  }
  if (!write_file(kCommand, *out_path, spec->to_json_string())) return 1;
  std::cout << "wrote " << *out_path << "\n";
  return 0;
}

// ---- calibrate --------------------------------------------------------------

int cmd_calibrate(const std::vector<std::string>& args) {
  constexpr const char* kCommand = "ipfs_sim calibrate";
  if (args.empty()) {
    std::cerr << "ipfs_sim calibrate: missing TRACE argument\n";
    return 2;
  }
  const std::string& trace_path = args[0];
  std::optional<std::string> out_path;
  std::optional<std::string> report_path;
  ipfs::analysis::calibrate::Options options;
  bool quiet = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--quiet") {
      quiet = true;
      continue;
    }
    if (arg == "--no-verify") {
      options.verify = false;
      continue;
    }
    const bool takes_value = arg == "--out" || arg == "--report" ||
                             arg == "--gap" || arg == "--name" ||
                             arg == "--seed" || arg == "--verify-scale" ||
                             arg == "--ks-threshold";
    if (!takes_value) {
      std::cerr << "ipfs_sim calibrate: unknown option '" << arg << "'\n";
      return 2;
    }
    if (i + 1 >= args.size()) {
      std::cerr << "ipfs_sim calibrate: " << arg << ": missing value\n";
      return 2;
    }
    const std::string& value = args[++i];
    if (arg == "--out") {
      out_path = value;
    } else if (arg == "--report") {
      report_path = value;
    } else if (arg == "--name") {
      options.name = value;
    } else if (arg == "--seed") {
      if (!option_u64(kCommand, arg, value, options.seed)) return 2;
    } else if (arg == "--gap") {
      if (!option_seconds(kCommand, arg, value, options.max_gap)) return 2;
    } else if (arg == "--verify-scale") {
      if (!option_positive(kCommand, arg, value, options.verify_scale)) return 2;
    } else if (arg == "--ks-threshold") {
      if (!option_positive(kCommand, arg, value, options.ks_threshold)) return 2;
    }
  }

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

  if (!quiet) {
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

  if (out_path) {
    if (!write_file(kCommand, *out_path, result->scenario.to_json_string())) {
      return 1;
    }
  } else {
    std::cout << result->scenario.to_json_string();
    if (!flush_stdout(kCommand)) return 1;
  }
  if (report_path &&
      !write_file(kCommand, *report_path, result->report_json())) {
    return 1;
  }
  if (result->loop.ran && !result->loop.pass) {
    std::cerr << "ipfs_sim calibrate: closed-loop KS " << result->loop.ks
              << " exceeds threshold " << result->loop.threshold << "\n";
    return 1;
  }
  return 0;
}

// ---- reproduce --------------------------------------------------------------

int cmd_reproduce(const std::vector<std::string>& args) {
  constexpr const char* kCommand = "ipfs_sim reproduce";
  double scale = 1.0;
  std::uint64_t seed = 20211203;
  std::vector<std::string> sections;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!arg.starts_with("--")) {
      sections.push_back(arg);
      continue;
    }
    if (arg != "--scale" && arg != "--seed") {
      std::cerr << kCommand << ": unknown option '" << arg << "'\n";
      return 2;
    }
    if (i + 1 >= args.size()) {
      std::cerr << kCommand << ": " << arg << ": missing value\n";
      return 2;
    }
    const std::string& value = args[++i];
    if (arg == "--scale" ? !option_positive(kCommand, arg, value, scale)
                         : !option_u64(kCommand, arg, value, seed)) {
      return 2;
    }
  }
  return ipfs::tools::reproduce(scale, seed, sections);
}

// ---- selftest ---------------------------------------------------------------

int cmd_selftest() {
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

int dispatch(const std::string& command, const std::vector<std::string>& args) {
  if (command == "help" || command == "--help" || command == "-h") {
    return usage(std::cout, 0);
  }
  if (command == "list") return cmd_list(args);
  if (command == "validate") return cmd_validate(args);
  if (command == "run") return cmd_run(args);
  if (command == "export") return cmd_export(args);
  if (command == "calibrate") return cmd_calibrate(args);
  if (command == "reproduce") return cmd_reproduce(args);
  if (command == "selftest") return cmd_selftest();
  std::cerr << "ipfs_sim: unknown command '" << command << "'\n";
  return usage(std::cerr, 2);
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
