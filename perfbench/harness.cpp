// Benchmark harness: one campaign per process, timed from outside the
// library (see README.md in this directory).
//
// A campaign follows the same calls as `ipfs_sim run`: load and validate a
// ScenarioSpec, CampaignEngine::create, run(sink) into a JsonExportSink, and
// then the paper's analysis suite over everything the run published.  The
// export streams into a digesting ostream, so its rendering cost counts and
// no file is written.  The process prints one JSON line: the end-to-end
// timings, its peak RSS, the export digest and an analysis fingerprint.
//
// With `--trace FILE` the same campaign also records spans around each call
// into a layer (kept in memory, written to FILE at the end), aggregates the
// sink callbacks per hook, and probes the lower layers' public APIs with the
// workload's own spec.  With `--shards K --shard-workers W` it runs the
// config through runtime::ShardedCampaignRunner instead and skips the
// analysis; the caller byte-compares that export with the sequential one.
//
//   perfbench_harness --scenario p4 --seed 20211203 --duration 43200
//   perfbench_harness --scenario churn-baseline --scale 2 --duration 3600
//       --seed 7 --trace trace.json

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/churn_stats.hpp"
#include "analysis/classification.hpp"
#include "analysis/connection_stats.hpp"
#include "analysis/content_stats.hpp"
#include "analysis/metadata.hpp"
#include "analysis/size_estimation.hpp"
#include "analysis/timeseries.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "net/conditions.hpp"
#include "p2p/conn_manager.hpp"
#include "p2p/protocols.hpp"
#include "runtime/sharded.hpp"
#include "scenario/campaign.hpp"
#include "scenario/population.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/simulation.hpp"

namespace {

namespace analysis = ipfs::analysis;
namespace common = ipfs::common;
namespace measure = ipfs::measure;
namespace scenario = ipfs::scenario;

using Clock = std::chrono::steady_clock;

/// Set-ups and analysis passes per campaign process; each is reported as
/// the median of its passes.
constexpr int kSetups = 3;
constexpr int kAnalyses = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (0 when empty).
double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

/// Peak resident set of this process so far, in MiB (Linux reports KiB).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---- export digest ------------------------------------------------------------

/// An ostream buffer that keeps no bytes: it hashes them in fixed 64 KiB
/// blocks.  Blocks are cut only when the buffer fills, never on flush, so
/// the digest depends on the byte sequence alone and not on how the writer
/// chunked it.
class DigestBuf final : public std::streambuf {
 public:
  DigestBuf() { setp(block_.data(), block_.data() + block_.size()); }

  /// Hash the final partial block and return the digest.  Call once, after
  /// the last write.
  std::uint64_t finish() {
    hash(static_cast<std::size_t>(pptr() - pbase()));
    return hash_;
  }
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return bytes_ + static_cast<std::uint64_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type ch) override {
    hash(block_.size());
    setp(block_.data(), block_.data() + block_.size());
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  // FNV-1a over 8-byte words, then the tail bytes.
  void hash(std::size_t length) {
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    std::size_t i = 0;
    for (; i + 8 <= length; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, block_.data() + i, sizeof word);
      hash_ = (hash_ ^ word) * kPrime;
    }
    for (; i < length; ++i) {
      hash_ = (hash_ ^ static_cast<unsigned char>(block_[i])) * kPrime;
    }
    bytes_ += length;
  }

  std::array<char, 64 * 1024> block_{};
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t bytes_ = 0;
};

// ---- spans --------------------------------------------------------------------

/// Spans recorded around calls into the library's layers: name, start, end
/// and parent, kept in memory and written out once at the end.  Disabled,
/// it records nothing and costs a branch per boundary.
class Tracer {
 public:
  static constexpr int kNone = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  int open(std::string name, int parent = kNone) {
    if (!enabled_) return kNone;
    spans_.push_back({std::move(name), now_ns(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id != kNone) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  /// Duration of span `id` in seconds (0 when tracing is off).
  [[nodiscard]] double seconds(int id) const {
    if (id == kNone) return 0.0;
    const Span& span = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  /// Median duration in seconds of the spans named `name` (0 when none).
  [[nodiscard]] double median_seconds(std::string_view name) const {
    std::vector<double> durations;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) durations.push_back(seconds(static_cast<int>(i)));
    }
    return median(durations);
  }

  void write(std::ostream& out) const {
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
          << span.name << "\", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns << ", \"parent\": ";
      if (span.parent == kNone) {
        out << "null}";
      } else {
        out << span.parent << "}";
      }
    }
    out << "\n]";
  }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = kNone;
  };

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, int parent = Tracer::kNone)
      : tracer_(tracer), id_(tracer.open(std::move(name), parent)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { tracer_.close(id_); }

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ---- sink boundary ------------------------------------------------------------

/// Sink hooks in MeasurementSink order.
enum Hook : std::size_t {
  kRunBegin, kCrawl, kPopulation, kProvide, kFetch, kContent, kDataset,
  kRunEnd, kHookCount
};
constexpr std::array<std::string_view, kHookCount> kHookNames = {
    "on_run_begin", "on_crawl", "on_population", "on_provide",
    "on_fetch",     "on_content", "on_dataset",  "on_run_end"};

/// Forwards every sink callback to `inner`, counting calls per hook and,
/// when tracing, summing their duration.  Callbacks fire up to ~1M times a
/// run, so they are aggregated rather than recorded as spans.
class BoundarySink final : public measure::MeasurementSink {
 public:
  struct HookStat {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
  };

  BoundarySink(measure::MeasurementSink& inner, const Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_run_begin(const std::string& description) override {
    Timed timed(*this, kRunBegin);
    inner_.on_run_begin(description);
  }
  void on_crawl(const measure::CrawlObservation& crawl) override {
    Timed timed(*this, kCrawl);
    inner_.on_crawl(crawl);
  }
  void on_population(const measure::PopulationSample& sample) override {
    Timed timed(*this, kPopulation);
    inner_.on_population(sample);
  }
  void on_provide(const measure::ProvideSample& sample) override {
    Timed timed(*this, kProvide);
    inner_.on_provide(sample);
  }
  void on_fetch(const measure::FetchSample& sample) override {
    Timed timed(*this, kFetch);
    inner_.on_fetch(sample);
  }
  void on_content(const measure::ContentSample& sample) override {
    Timed timed(*this, kContent);
    inner_.on_content(sample);
  }
  void on_dataset(measure::DatasetRole role, measure::Dataset dataset) override {
    Timed timed(*this, kDataset);
    inner_.on_dataset(role, std::move(dataset));
  }
  void on_run_end(const measure::RunSummary& summary) override {
    Timed timed(*this, kRunEnd);
    inner_.on_run_end(summary);
  }

  [[nodiscard]] const std::array<HookStat, kHookCount>& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] double seconds(std::initializer_list<Hook> hooks) const {
    std::int64_t ns = 0;
    for (Hook hook : hooks) ns += stats_[hook].ns;
    return static_cast<double>(ns) * 1e-9;
  }
  [[nodiscard]] std::uint64_t calls() const {
    std::uint64_t total = 0;
    for (const HookStat& stat : stats_) total += stat.calls;
    return total;
  }

 private:
  class Timed {
   public:
    Timed(BoundarySink& sink, Hook hook)
        : stat_(sink.stats_[hook]),
          tracer_(sink.tracer_),
          start_(tracer_.enabled() ? tracer_.now_ns() : 0) {
      ++stat_.calls;
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;
    ~Timed() {
      if (tracer_.enabled()) stat_.ns += tracer_.now_ns() - start_;
    }

   private:
    HookStat& stat_;
    const Tracer& tracer_;
    std::int64_t start_;
  };

  measure::MeasurementSink& inner_;
  const Tracer& tracer_;
  std::array<HookStat, kHookCount> stats_{};
};

// ---- analysis suite -------------------------------------------------------------

/// Integers pinned per workload: what the analyses concluded.
struct Fingerprint {
  std::uint64_t datasets = 0;
  std::uint64_t peers = 0;
  std::uint64_t connections = 0;
  std::uint64_t sessions = 0;
  std::uint64_t network_size = 0;  ///< estimated peers by IP grouping
  std::array<std::uint64_t, 4> classes{};  ///< heavy, normal, light, one-time
  std::uint64_t crawls = 0;
  std::uint64_t population_samples = 0;
  std::uint64_t provides = 0;
  std::uint64_t fetches_served = 0;
  std::uint64_t content_samples = 0;

  [[nodiscard]] bool operator==(const Fingerprint&) const = default;

  void write(std::ostream& out) const {
    out << "{\"datasets\": " << datasets << ", \"peers\": " << peers
        << ", \"connections\": " << connections << ", \"sessions\": " << sessions
        << ", \"network_size\": " << network_size << ", \"classes\": [" << classes[0]
        << ", " << classes[1] << ", " << classes[2] << ", " << classes[3]
        << "], \"crawls\": " << crawls
        << ", \"population_samples\": " << population_samples
        << ", \"provides\": " << provides << ", \"fetches_served\": " << fetches_served
        << ", \"content_samples\": " << content_samples << "}";
  }
};

/// The in-memory §IV–§V analysis suite over every published dataset and
/// sample stream, one span per analysis module.
Fingerprint analyze(const measure::CollectingSink& results,
                    const scenario::ScenarioSpec& spec, Tracer& tracer, int parent) {
  using common::kHour;
  using common::kMinute;
  Fingerprint print;
  print.datasets = results.datasets().size();
  for (const measure::CollectingSink::Entry& entry : results.datasets()) {
    const measure::Dataset& dataset = entry.dataset;
    print.peers += dataset.peer_count();
    print.connections += dataset.connection_count();
    {
      SpanScope span(tracer, "analysis.connection_stats", parent);
      const auto stats = analysis::compute_connection_stats(dataset);
      const auto reasons = analysis::compute_close_reasons(dataset);
      if (stats.all.count != reasons.total()) {
        throw std::runtime_error("close reasons do not cover every connection");
      }
    }
    {
      SpanScope span(tracer, "analysis.classify", parent);
      const auto counts = analysis::classify_peers(dataset);
      const auto cdfs = analysis::connection_cdfs(dataset);
      (void)cdfs;
      if (entry.role == measure::DatasetRole::kVantage) {
        for (std::size_t i = 0; i < 4; ++i) print.classes[i] = counts.peers[i];
      }
    }
    {
      SpanScope span(tracer, "analysis.size_estimate", parent);
      const auto report = analysis::estimate_network_size(dataset);
      const auto grouping = analysis::group_by_multiaddr(dataset);
      if (report.estimated_peers_by_ip != grouping.groups) {
        throw std::runtime_error("size estimate disagrees with the IP grouping");
      }
      if (entry.role == measure::DatasetRole::kVantage) {
        print.network_size = report.estimated_peers_by_ip;
      }
    }
    {
      SpanScope span(tracer, "analysis.sessions", parent);
      const auto sessions = analysis::reconstruct_sessions(dataset);
      const auto churn = analysis::compute_churn_stats(sessions);
      const auto versus = analysis::observed_vs_true(sessions, results.population());
      if (churn.session_count != sessions.size() ||
          versus.size() != results.population().size()) {
        throw std::runtime_error("session statistics lost sessions or samples");
      }
      print.sessions += sessions.size();
    }
    {
      SpanScope span(tracer, "analysis.timeseries", parent);
      const auto simultaneous =
          analysis::simultaneous_connections(dataset, 10 * kMinute, dataset.duration());
      const auto growth = analysis::pid_growth(dataset, kHour);
      (void)simultaneous;
      (void)growth;
    }
    {
      SpanScope span(tracer, "analysis.metadata", parent);
      const auto summary = analysis::summarize_metadata(dataset);
      const auto versions = analysis::count_version_changes(dataset);
      const auto kad = analysis::protocol_flapping(dataset, ipfs::p2p::protocols::kKad);
      const auto autonat =
          analysis::protocol_flapping(dataset, ipfs::p2p::protocols::kAutonat);
      (void)versions;
      (void)kad;
      (void)autonat;
      if (summary.total_pids != dataset.peer_count()) {
        throw std::runtime_error("metadata summary miscounts PIDs");
      }
    }
  }
  {
    SpanScope span(tracer, "analysis.content", parent);
    const auto provides = analysis::compute_provide_stats(results.provides());
    const common::SimDuration ttl =
        spec.content ? spec.content->provider_ttl : 24 * kHour;
    const auto availability = analysis::provider_availability_over_time(
        results.provides(), ttl, kHour, 0, spec.period.duration);
    const auto coverage = analysis::record_coverage(results.content());
    const auto fetches = analysis::compute_fetch_stats(results.fetches());
    (void)availability;
    if (provides.provides != results.provides().size() ||
        coverage.size() != results.content().size()) {
      throw std::runtime_error("content statistics lost samples");
    }
    print.provides = provides.provides;
    print.fetches_served = fetches.served;
  }
  print.crawls = results.crawls().size();
  print.population_samples = results.population().size();
  print.content_samples = results.content().size();
  return print;
}

// ---- layer probes ---------------------------------------------------------------

/// Nanoseconds per operation of `batch` (which runs `ops` operations), the
/// median of three batches.
template <typename Batch>
double ns_per_op(std::size_t ops, Batch&& batch) {
  std::vector<double> ns;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    batch();
    ns.push_back(seconds_since(start) * 1e9 / static_cast<double>(ops));
  }
  return median(ns);
}

/// One probe result; nullopt when the workload lacks the probed section.
struct Probe {
  std::string name;
  std::optional<double> ns;
  std::uint64_t checksum = 0;
};

/// Calls each lower layer's public API with the workload's own spec and
/// population, outside the campaign.
std::vector<Probe> run_probes(const scenario::ScenarioSpec& spec, Tracer& tracer,
                              int parent) {
  using common::SimTime;
  const std::uint64_t seed = spec.campaign.seed;
  const scenario::Population population(spec.population, spec.period.duration,
                                        common::Rng(seed));
  const auto& peers = population.peers();
  if (peers.empty()) throw std::runtime_error("the probes need a non-empty population");
  const auto n = static_cast<std::uint32_t>(peers.size());
  const SimTime horizon = std::max<SimTime>(spec.period.duration, 1);
  std::vector<Probe> probes;

  {
    // sim::Simulation under a hold model with one chain per peer: every
    // event reschedules its chain 1 ms to 60 s ahead.
    SpanScope span(tracer, "probe.sim.hold", parent);
    struct Hold {
      ipfs::sim::Simulation simulation;
      common::Rng rng;
      std::uint64_t fired = 0;
    } hold{{}, common::Rng(seed), 0};
    const auto hop = [&hold](auto&& self) -> void {
      ++hold.fired;
      hold.simulation.schedule_after(
          static_cast<common::SimDuration>(hold.rng.uniform_u64(60'000) + 1),
          [&hold, self] { self(self); });
    };
    for (std::uint32_t chain = 0; chain < n; ++chain) {
      hold.simulation.schedule_at(
          static_cast<SimTime>(hold.rng.uniform_u64(60'000)),
          [&hold, hop] { hop(hop); });
    }
    constexpr std::size_t kSteps = 1'000'000;
    const double ns = ns_per_op(kSteps, [&hold] {
      for (std::size_t i = 0; i < kSteps; ++i) hold.simulation.step();
    });
    probes.push_back({"sim.hold_ns_per_event", ns, hold.fired});
  }

  if (spec.period.go_ipfs_present) {
    // p2p::ConnManager::plan_trim at the vantage's watermarks, over a table
    // 5% above high water with every connection past its grace period.
    SpanScope span(tracer, "probe.p2p.trim", parent);
    ipfs::p2p::ConnManager manager(ipfs::p2p::ConnManagerConfig::with_watermarks(
        spec.period.go_low_water, spec.period.go_high_water));
    const auto table = static_cast<std::size_t>(spec.period.go_high_water) +
                       static_cast<std::size_t>(spec.period.go_high_water) / 20 + 1;
    common::Rng rng(seed ^ 0x7e1f);
    const SimTime now = 3 * common::kDay;
    std::vector<ipfs::p2p::Connection> connections(table);
    std::vector<const ipfs::p2p::Connection*> open;
    open.reserve(table);
    for (std::size_t i = 0; i < table; ++i) {
      auto& connection = connections[i];
      connection.id = i + 1;
      connection.remote = peers[i % n].pid;
      connection.opened = static_cast<SimTime>(rng.uniform_u64(2 * common::kDay));
      if (i % 5 == 0) manager.set_tag(connection.remote, 10);
      open.push_back(&connection);
    }
    std::uint64_t trimmed = 0;
    constexpr std::size_t kPlans = 20;
    const double ns = ns_per_op(kPlans, [&] {
      for (std::size_t i = 0; i < kPlans; ++i) {
        trimmed += manager.plan_trim(open, now).size();
      }
    });
    probes.push_back({"p2p.trim_ns_per_plan", ns, trimmed});
  } else {
    probes.push_back({"p2p.trim_ns_per_plan", std::nullopt, 0});
  }

  if (spec.network) {
    SpanScope span(tracer, "probe.net.dial_gate", parent);
    const ipfs::net::ConditionModel model(*spec.network, seed);
    const auto vantage = ipfs::p2p::PeerId::from_seed(seed);
    constexpr std::size_t kDials = 1'000'000;
    std::uint64_t allowed = 0;
    const double ns = ns_per_op(kDials, [&] {
      for (std::size_t i = 0; i < kDials; ++i) {
        const auto& peer = peers[i % n];
        const auto at = static_cast<SimTime>((i * 86'413) % horizon);
        allowed += model.dial_allowed(vantage, peer.pid, at,
                                      scenario::to_string(peer.category))
                       ? 1
                       : 0;
      }
    });
    probes.push_back({"net.dial_gate_ns", ns, allowed});
  } else {
    probes.push_back({"net.dial_gate_ns", std::nullopt, 0});
  }

  if (spec.churn) {
    // One session_length plus one gap_length per (node, session).
    SpanScope span(tracer, "probe.scenario.churn_draw", parent);
    const scenario::ChurnModel model(*spec.churn, seed);
    constexpr std::size_t kPairs = 250'000;
    std::uint64_t drawn = 0;
    const double ns = ns_per_op(2 * kPairs, [&] {
      for (std::size_t i = 0; i < kPairs; ++i) {
        const auto& peer = peers[i % n];
        const auto session = static_cast<std::uint32_t>(i / n);
        const auto at = static_cast<SimTime>((i * 60'013) % horizon);
        drawn += static_cast<std::uint64_t>(
            model.session_length(peer.index, session, peer.category));
        drawn += static_cast<std::uint64_t>(
            model.gap_length(peer.index, session, at, peer.category));
      }
    });
    probes.push_back({"scenario.churn_draw_ns", ns, drawn});
  } else {
    probes.push_back({"scenario.churn_draw_ns", std::nullopt, 0});
  }

  if (spec.content) {
    SpanScope span(tracer, "probe.scenario.content_draw", parent);
    const scenario::ContentModel model(*spec.content, seed);
    constexpr std::size_t kDraws = 500'000;
    std::uint64_t drawn = 0;
    const double ns = ns_per_op(kDraws, [&] {
      for (std::size_t i = 0; i < kDraws; ++i) {
        const auto& peer = peers[i % n];
        drawn += static_cast<std::uint64_t>(model.fetch_gap(
            peer.index, static_cast<std::uint32_t>(i / n), peer.category));
      }
    });
    probes.push_back({"scenario.content_draw_ns", ns, drawn});
  } else {
    probes.push_back({"scenario.content_draw_ns", std::nullopt, 0});
  }

  if (spec.phases) {
    SpanScope span(tracer, "probe.scenario.rates_at", parent);
    const scenario::PhaseProgram program(*spec.phases);
    constexpr std::size_t kLookups = 2'000'000;
    double total = 0.0;
    const double ns = ns_per_op(kLookups, [&] {
      for (std::size_t i = 0; i < kLookups; ++i) {
        total += program.rates_at(static_cast<SimTime>((i * 43'201) % horizon)).fetch;
      }
    });
    probes.push_back({"scenario.rates_at_ns", ns, static_cast<std::uint64_t>(total)});
  } else {
    probes.push_back({"scenario.rates_at_ns", std::nullopt, 0});
  }
  return probes;
}

// ---- command line ---------------------------------------------------------------

struct Options {
  std::string scenario;
  std::optional<std::uint64_t> seed;
  std::optional<double> scale;
  std::optional<double> duration_s;
  std::optional<std::string> trace_path;
  std::optional<std::uint32_t> shards;
  std::uint32_t shard_workers = 0;
};

int usage(const std::string& message) {
  std::cerr << "perfbench_harness: " << message
            << "\nusage: perfbench_harness --scenario REF --seed N [--scale X]"
               " [--duration SECONDS] [--trace FILE | --shards K --shard-workers W]\n";
  return 2;
}

std::optional<Options> parse_args(int argc, char** argv, std::string& error) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      error = std::string(flag) + ": missing value";
      return std::nullopt;
    }
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--scenario") {
      options.scenario = value;
    } else if (flag == "--seed") {
      const auto seed = common::parse_u64(value);
      ok = seed.has_value();
      if (ok) options.seed = *seed;
    } else if (flag == "--scale" || flag == "--duration") {
      const auto number = common::parse_finite_double(value);
      ok = number.has_value() && *number > 0.0;
      if (ok) (flag == "--scale" ? options.scale : options.duration_s) = *number;
    } else if (flag == "--trace") {
      options.trace_path = value;
    } else if (flag == "--shards" || flag == "--shard-workers") {
      const auto count = common::parse_u64(value);
      ok = count.has_value() && *count >= 1 && *count <= 64;
      if (ok && flag == "--shards") options.shards = static_cast<std::uint32_t>(*count);
      if (ok && flag == "--shard-workers") {
        options.shard_workers = static_cast<std::uint32_t>(*count);
      }
    } else {
      error = "unknown option '" + std::string(flag) + "'";
      return std::nullopt;
    }
    if (!ok) {
      error = std::string(flag) + ": bad value '" + value + "'";
      return std::nullopt;
    }
  }
  if (options.scenario.empty() || !options.seed) {
    error = "--scenario and --seed are required";
    return std::nullopt;
  }
  if (options.shards && options.trace_path) {
    error = "--shards and --trace are exclusive";
    return std::nullopt;
  }
  return options;
}

/// Builtin name or scenario file, with the run's overrides, validated.
std::optional<scenario::ScenarioSpec> load_spec(const Options& options,
                                                std::string& error) {
  std::optional<scenario::ScenarioSpec> spec;
  if (std::filesystem::exists(options.scenario)) {
    auto loaded = scenario::ScenarioSpec::from_file(options.scenario);
    if (!loaded) {
      error = loaded.error();
      return std::nullopt;
    }
    spec = std::move(*loaded);
  } else {
    spec = scenario::ScenarioSpec::builtin(options.scenario);
    if (!spec) {
      error = options.scenario + ": no such file and not a builtin scenario";
      return std::nullopt;
    }
  }
  spec->campaign.seed = *options.seed;
  if (options.scale) spec->population.scale = *options.scale;
  if (options.duration_s) spec->period.duration = common::from_seconds(*options.duration_s);
  if (spec->campaign.trials != 1) {
    error = "the benchmark runs single-trial scenarios only";
    return std::nullopt;
  }
  if (auto invalid = scenario::ScenarioSpec::validate(*spec)) {
    error = *invalid;
    return std::nullopt;
  }
  return spec;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

int run_sharded(const Options& options) {
  std::string error;
  auto spec = load_spec(options, error);
  if (!spec) return usage(error);
  DigestBuf digest;
  std::ostream stream(&digest);
  measure::JsonExportSink export_sink(stream, spec->output.export_options());
  ipfs::runtime::ShardedCampaignRunner::Options shard_options;
  shard_options.shards = *options.shards;
  shard_options.workers = options.shard_workers;
  const auto start = Clock::now();
  auto outcome = ipfs::runtime::ShardedCampaignRunner(shard_options)
                     .run(spec->to_campaign_config(), export_sink);
  const double sharded_s = seconds_since(start);
  if (!outcome) {
    std::cerr << "perfbench_harness: " << outcome.error() << "\n";
    return 1;
  }
  const std::uint64_t bytes = digest.bytes();
  std::cout << std::setprecision(9) << "{\"sharded_s\": " << sharded_s
            << ", \"shards\": " << *options.shards
            << ", \"shard_workers\": " << options.shard_workers
            << ", \"export_digest\": \"" << hex(digest.finish())
            << "\", \"export_bytes\": " << bytes << "}\n";
  return 0;
}

int run_campaign(const Options& options) {
  Tracer tracer(options.trace_path.has_value());
  const int root = tracer.open("campaign");

  // 1. ScenarioSpec load and validate; 2. CampaignEngine::create.  Set-up
  // is short next to timer and host noise, so it runs kSetups times (each
  // engine destroyed before the next is built) and reports the median; the
  // last engine runs.
  std::optional<scenario::ScenarioSpec> spec;
  std::optional<scenario::CampaignEngine> engine;
  std::vector<double> setups;
  for (int setup = 0; setup < kSetups; ++setup) {
    engine.reset();
    const auto setup_start = Clock::now();
    std::string error;
    {
      SpanScope span(tracer, "scenario.load", root);
      spec = load_spec(options, error);
    }
    if (!spec) return usage(error);
    SpanScope span(tracer, "scenario.create", root);
    auto created = scenario::CampaignEngine::create(spec->to_campaign_config());
    if (!created) {
      std::cerr << "perfbench_harness: " << created.error() << "\n";
      return 1;
    }
    engine.emplace(std::move(*created));
    setups.push_back(seconds_since(setup_start));
  }
  const double setup_s = median(setups);
  const double rss_after_create_mb = peak_rss_mb();

  // 3. run(sink) into a JsonExportSink streaming into the digest; the
  // collecting sink keeps what the analyses read.
  DigestBuf digest;
  std::ostream stream(&digest);
  measure::JsonExportSink export_sink(stream, spec->output.export_options());
  measure::CollectingSink results;
  measure::FanOutSink fan_out{&results, &export_sink};
  BoundarySink boundary(fan_out, tracer);
  const auto run_start = Clock::now();
  int run_span = Tracer::kNone;
  {
    SpanScope span(tracer, "engine.run", root);
    run_span = span.id();
    engine->run(boundary);
  }
  const double run_s = seconds_since(run_start);
  stream.flush();
  if (!stream) {
    std::cerr << "perfbench_harness: export stream failed\n";
    return 1;
  }
  const std::uint64_t export_bytes = digest.bytes();
  const std::uint64_t export_digest = digest.finish();

  // 4. The analysis suite over what was published, kAnalyses times (it is
  // pure over the collected results); the median is reported and every
  // pass must reach the same fingerprint.
  Fingerprint print;
  std::vector<double> analyses;
  for (int pass = 0; pass < kAnalyses; ++pass) {
    const auto analyze_start = Clock::now();
    SpanScope span(tracer, "analysis", root);
    const Fingerprint current = analyze(results, *spec, tracer, span.id());
    analyses.push_back(seconds_since(analyze_start));
    if (pass > 0 && !(current == print)) {
      std::cerr << "perfbench_harness: analysis passes disagree\n";
      return 1;
    }
    print = current;
  }
  const double analyze_s = median(analyses);
  const double peak_mb = peak_rss_mb();

  std::ostringstream line;
  line << std::setprecision(9) << "{\"setup_s\": " << setup_s << ", \"run_s\": " << run_s
       << ", \"analyze_s\": " << analyze_s << ", \"peak_rss_mb\": " << peak_mb
       << ", \"export_digest\": \"" << hex(export_digest)
       << "\", \"export_bytes\": " << export_bytes << ", \"fingerprint\": ";
  print.write(line);

  if (tracer.enabled()) {
    std::vector<Probe> probes;
    {
      SpanScope span(tracer, "probes", root);
      probes = run_probes(*spec, tracer, span.id());
    }
    tracer.close(root);

    const measure::RunSummary& summary = results.summary();
    const double sink_s = boundary.seconds({kRunBegin, kCrawl, kPopulation, kProvide,
                                            kFetch, kContent, kDataset, kRunEnd});
    const double run_self_s = tracer.seconds(run_span) - sink_s;
    const measure::Dataset* vantage = results.find(measure::DatasetRole::kVantage);
    const auto& stats = boundary.stats();
    std::vector<std::pair<std::string, std::optional<double>>> layers = {
        {"scenario.parse_s", tracer.median_seconds("scenario.load")},
        {"scenario.create_s", tracer.median_seconds("scenario.create")},
        {"scenario.population", static_cast<double>(summary.population_size)},
        {"scenario.rss_after_create_mb", rss_after_create_mb},
        {"engine.run_self_s", run_self_s},
        {"engine.events", static_cast<double>(summary.events_executed)},
        {"engine.ns_per_event",
         summary.events_executed
             ? std::optional<double>(run_self_s * 1e9 /
                                     static_cast<double>(summary.events_executed))
             : std::nullopt},
        {"measure.sink_dataset_s", boundary.seconds({kDataset})},
        {"measure.dataset_peers",
         static_cast<double>(vantage ? vantage->peer_count() : 0)},
        {"measure.dataset_connections",
         static_cast<double>(vantage ? vantage->connection_count() : 0)},
        {"measure.export_bytes", static_cast<double>(export_bytes)},
        {"measure.sink_samples_s",
         boundary.seconds({kCrawl, kPopulation, kProvide, kFetch, kContent})},
        {"measure.sink_run_end_s", boundary.seconds({kRunEnd})},
        {"measure.sink_calls", static_cast<double>(boundary.calls())},
        {"measure.samples_population", static_cast<double>(stats[kPopulation].calls)},
        {"measure.samples_provide", static_cast<double>(stats[kProvide].calls)},
        {"measure.samples_fetch", static_cast<double>(stats[kFetch].calls)},
        {"measure.samples_content", static_cast<double>(stats[kContent].calls)},
        {"measure.crawls", static_cast<double>(stats[kCrawl].calls)},
    };
    for (const char* module : {"connection_stats", "classify", "metadata", "timeseries",
                               "size_estimate", "sessions", "content"}) {
      const std::string name = std::string("analysis.") + module;
      layers.emplace_back(name + "_s", tracer.median_seconds(name));
    }
    for (const Probe& probe : probes) layers.emplace_back(probe.name, probe.ns);

    line << ", \"layers\": {";
    for (std::size_t i = 0; i < layers.size(); ++i) {
      line << (i ? ", " : "") << "\"" << layers[i].first << "\": ";
      if (layers[i].second) {
        line << *layers[i].second;
      } else {
        line << "null";
      }
    }
    line << "}";

    // The sidecar: every span, the aggregated sink hooks under engine.run,
    // and the probes' applicability and checksums.
    std::ofstream sidecar(*options.trace_path);
    sidecar << "{\"scenario\": \"" << spec->name << "\", \"seed\": "
            << spec->campaign.seed << ",\n\"spans\": ";
    tracer.write(sidecar);
    sidecar << ",\n\"hooks\": [";
    for (std::size_t h = 0; h < kHookCount; ++h) {
      sidecar << (h ? ",\n  " : "\n  ") << "{\"name\": \"measure." << kHookNames[h]
              << "\", \"parent\": " << run_span << ", \"calls\": " << stats[h].calls
              << ", \"total_ns\": " << stats[h].ns << "}";
    }
    sidecar << "\n],\n\"probes\": [";
    for (std::size_t p = 0; p < probes.size(); ++p) {
      sidecar << (p ? ",\n  " : "\n  ") << "{\"name\": \"" << probes[p].name
              << "\", \"applicable\": " << (probes[p].ns ? "true" : "false")
              << ", \"ns_per_op\": ";
      if (probes[p].ns) {
        sidecar << std::setprecision(9) << *probes[p].ns;
      } else {
        sidecar << "null";
      }
      sidecar << ", \"checksum\": " << probes[p].checksum << "}";
    }
    sidecar << "\n]}\n";
    if (!sidecar) {
      std::cerr << "perfbench_harness: cannot write " << *options.trace_path << "\n";
      return 1;
    }
  }
  line << "}\n";
  std::cout << line.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto options = parse_args(argc, argv, error);
  if (!options) return usage(error);
  try {
    return options->shards ? run_sharded(*options) : run_campaign(*options);
  } catch (const std::exception& failure) {
    std::cerr << "perfbench_harness: " << failure.what() << "\n";
    return 1;
  }
}
