// How observations leave the system.
//
// Every producer of measurement data — the passive `Recorder`, the active
// crawler's periodic snapshots and the campaign engine's per-vantage
// datasets — publishes through the `MeasurementSink` interface instead of
// returning one monolithic struct (DESIGN.md §4).  Crawl observations
// stream as they happen; datasets are published once finalised.  Consumers
// that want a whole run in memory use `CollectingSink`.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/sim_time.hpp"
#include "measure/dataset.hpp"

namespace ipfs::measure {

/// What a published dataset represents within a run.
enum class DatasetRole : std::uint8_t {
  kVantage,     ///< the primary vantage (the paper's instrumented go-ipfs)
  kHydraHead,   ///< one hydra head
  kHydraUnion,  ///< union of all hydra heads (§III-C)
  kOther,       ///< ad-hoc recorders (testbed experiments)
};

[[nodiscard]] std::string_view to_string(DatasetRole role) noexcept;
/// Inverse of `to_string`; nullopt for unknown names.  Scenario files use
/// these names to pick an export role filter (docs/SCENARIOS.md).
[[nodiscard]] std::optional<DatasetRole> role_from_string(
    std::string_view name) noexcept;

/// One active-crawler snapshot (the Fig. 2 baseline).
struct CrawlObservation {
  SimTime at = 0;
  std::size_t reached_servers = 0;  ///< online, reachable DHT servers
  std::size_t learned_pids = 0;     ///< incl. stale routing-table entries
};

/// Crawler min/max across `crawls` (the Fig. 2 band): the fewest reached
/// servers and the most learned PIDs; (0, 0) when there are none.
[[nodiscard]] std::pair<std::size_t, std::size_t> crawler_min_max(
    std::span<const CrawlObservation> crawls) noexcept;

/// One sample of the true population state next to the vantage's view —
/// published by campaign runs with a session-churn model engaged
/// (scenario::ChurnModel, DESIGN.md §10).  This is the ground truth the
/// paper never had: `analysis::observed_vs_true` compares it against the
/// sessions reconstructed from the dataset.
struct PopulationSample {
  SimTime at = 0;
  std::size_t online = 0;     ///< peers truly inside a session right now
  std::size_t total = 0;      ///< full population size
  std::size_t connected = 0;  ///< distinct peers with an open vantage connection
};

/// One provider-record publish landing at the vantages — published by
/// campaign runs with a content workload engaged (scenario::ContentModel,
/// DESIGN.md §11).
struct ProvideSample {
  SimTime at = 0;
  std::uint32_t key = 0;       ///< keyspace index of the provided CID
  std::uint32_t provider = 0;  ///< population index of the providing peer
  bool republish = false;      ///< true for 12 h-cycle refreshes
};

/// One Bitswap fetch attempt: provider lookup at a vantage followed by a
/// want/block exchange when a live provider record was found.
struct FetchSample {
  SimTime at = 0;
  std::uint32_t key = 0;        ///< keyspace index requested
  bool found_provider = false;  ///< a live provider record existed
  bool served = false;          ///< the block actually arrived
  SimDuration latency = 0;      ///< want -> block round trip (0 when unserved)
};

/// One records-at-vantage sample next to the ground truth — what the
/// paper's hydra "belly" sees versus what is truly live.
struct ContentSample {
  SimTime at = 0;
  std::size_t vantage_records = 0;  ///< live provider records across server vantages
  std::size_t vantage_keys = 0;     ///< distinct keys with >= 1 live record
  std::size_t true_records = 0;     ///< provider slots of peers truly online
};

/// Per-phase activity totals of a phased campaign (scenario::PhaseProgram,
/// DESIGN.md §14): what actually happened inside each phase window.
struct PhaseSummary {
  std::string name;  ///< phase label ("" = unnamed)
  std::string mode;  ///< "hold" / "ramp" / "burst" / "flash_crowd"
  SimTime start = 0;
  SimDuration hold = 0;
  std::uint64_t sessions = 0;  ///< sessions started inside the window
  std::uint64_t provides = 0;  ///< provider publishes that landed
  std::uint64_t fetches = 0;   ///< fetch attempts emitted
  std::uint64_t crawls = 0;    ///< crawler snapshots taken
};

/// End-of-run bookkeeping, published after the last dataset.
struct RunSummary {
  std::size_t population_size = 0;
  std::size_t events_executed = 0;
  /// Per-phase totals; empty unless a phase program ran.
  std::vector<PhaseSummary> phases;
};

/// Receives measurement output.  Hooks default to no-ops so sinks override
/// only what they consume.  Within one run the call order is:
/// `on_run_begin`, any number of `on_crawl` / `on_population` /
/// `on_provide` / `on_fetch` / `on_content` (interleaved, each in
/// simulation-time order), then every `on_dataset`, then `on_run_end`.
class MeasurementSink {
 public:
  virtual ~MeasurementSink() = default;

  virtual void on_run_begin(const std::string& description) { (void)description; }
  virtual void on_crawl(const CrawlObservation& crawl) { (void)crawl; }
  virtual void on_population(const PopulationSample& sample) { (void)sample; }
  virtual void on_provide(const ProvideSample& sample) { (void)sample; }
  virtual void on_fetch(const FetchSample& sample) { (void)sample; }
  virtual void on_content(const ContentSample& sample) { (void)sample; }
  virtual void on_dataset(DatasetRole role, Dataset dataset) {
    (void)role;
    (void)dataset;
  }
  virtual void on_run_end(const RunSummary& summary) { (void)summary; }
};

/// Buffers everything published (testbed experiments, tests).
class CollectingSink final : public MeasurementSink {
 public:
  struct Entry {
    DatasetRole role = DatasetRole::kOther;
    Dataset dataset;
  };

  void on_run_begin(const std::string& description) override {
    description_ = description;
  }
  void on_crawl(const CrawlObservation& crawl) override { crawls_.push_back(crawl); }
  void on_population(const PopulationSample& sample) override {
    population_.push_back(sample);
  }
  void on_provide(const ProvideSample& sample) override {
    provides_.push_back(sample);
  }
  void on_fetch(const FetchSample& sample) override { fetches_.push_back(sample); }
  void on_content(const ContentSample& sample) override {
    content_.push_back(sample);
  }
  void on_dataset(DatasetRole role, Dataset dataset) override {
    datasets_.push_back({role, std::move(dataset)});
  }
  void on_run_end(const RunSummary& summary) override { summary_ = summary; }

  [[nodiscard]] const std::string& description() const noexcept { return description_; }
  [[nodiscard]] const std::vector<CrawlObservation>& crawls() const noexcept {
    return crawls_;
  }
  [[nodiscard]] const std::vector<PopulationSample>& population() const noexcept {
    return population_;
  }
  [[nodiscard]] const std::vector<ProvideSample>& provides() const noexcept {
    return provides_;
  }
  [[nodiscard]] const std::vector<FetchSample>& fetches() const noexcept {
    return fetches_;
  }
  [[nodiscard]] const std::vector<ContentSample>& content() const noexcept {
    return content_;
  }
  [[nodiscard]] const std::vector<Entry>& datasets() const noexcept {
    return datasets_;
  }
  [[nodiscard]] const RunSummary& summary() const noexcept { return summary_; }

  /// First dataset published with `role`, nullptr when absent.
  [[nodiscard]] const Dataset* find(DatasetRole role) const noexcept;

 private:
  std::string description_;
  std::vector<CrawlObservation> crawls_;
  std::vector<PopulationSample> population_;
  std::vector<ProvideSample> provides_;
  std::vector<FetchSample> fetches_;
  std::vector<ContentSample> content_;
  std::vector<Entry> datasets_;
  RunSummary summary_;
};

/// Records the complete event stream — begin, crawls, datasets, end — in
/// publication order and replays it into another sink later, byte-for-byte
/// equivalent to having published there directly.  This is how
/// `runtime::ParallelTrialRunner` buffers each concurrent trial's output so
/// the merged stream can be emitted in deterministic trial order
/// (DESIGN.md §7).
class ReplaySink final : public MeasurementSink {
 public:
  void on_run_begin(const std::string& description) override;
  void on_crawl(const CrawlObservation& crawl) override;
  void on_population(const PopulationSample& sample) override;
  void on_provide(const ProvideSample& sample) override;
  void on_fetch(const FetchSample& sample) override;
  void on_content(const ContentSample& sample) override;
  void on_dataset(DatasetRole role, Dataset dataset) override;
  void on_run_end(const RunSummary& summary) override;

  /// Replay the recorded stream into `sink` in original order.  Datasets
  /// are moved out; a ReplaySink replays once.
  void replay(MeasurementSink& sink);

  [[nodiscard]] std::size_t event_count() const noexcept { return events_.size(); }

 private:
  struct BeginEvent {
    std::string description;
  };
  struct DatasetEvent {
    DatasetRole role = DatasetRole::kOther;
    Dataset dataset;
  };
  using Event = std::variant<BeginEvent, CrawlObservation, PopulationSample,
                             ProvideSample, FetchSample, ContentSample,
                             DatasetEvent, RunSummary>;

  std::vector<Event> events_;
};

/// Broadcasts every event to several sinks (e.g. keep results in memory
/// while also streaming a JSON export).  Every sink gets its own handle on
/// each dataset; the copies share storage, so the fan-out costs a reference
/// count per sink, not a copy of the dataset.
class FanOutSink final : public MeasurementSink {
 public:
  FanOutSink() = default;
  FanOutSink(std::initializer_list<MeasurementSink*> sinks) : sinks_(sinks) {}

  void add(MeasurementSink& sink) { sinks_.push_back(&sink); }

  void on_run_begin(const std::string& description) override;
  void on_crawl(const CrawlObservation& crawl) override;
  void on_population(const PopulationSample& sample) override;
  void on_provide(const ProvideSample& sample) override;
  void on_fetch(const FetchSample& sample) override;
  void on_content(const ContentSample& sample) override;
  void on_dataset(DatasetRole role, Dataset dataset) override;
  void on_run_end(const RunSummary& summary) override;

 private:
  std::vector<MeasurementSink*> sinks_;
};

/// Streams datasets as JSON to an ostream the moment they are published —
/// the sink equivalent of the paper's periodic JSON dumps (§III-A).
/// Churned runs additionally publish ground-truth `PopulationSample`s,
/// exported as one `population_samples` document per run after the
/// datasets (runs without churn emit nothing extra — legacy exports stay
/// byte-identical).  Content-enabled runs likewise get one
/// `provide_samples` / `fetch_samples` / `content_samples` document per
/// non-empty stream, in that order after the population one.
///
/// Samples are *streamed*, not buffered: each one is rendered to its
/// document's spool (an unnamed temporary file) the moment it arrives and
/// the finished documents are spliced into the output at run end.  Memory
/// stays O(1) in the sample count, which is what lets million-peer
/// campaigns export their ground-truth streams; the spliced bytes are
/// identical to the former buffer-everything implementation.
class JsonExportSink final : public MeasurementSink {
 public:
  struct Options {
    bool include_connections = false;
    /// Pretty-print the exported documents (scenario specs can opt for
    /// compact single-line output instead).
    bool pretty = true;
    /// When set, only datasets with this role are exported (population
    /// samples are not datasets and are unaffected).
    std::optional<DatasetRole> role_filter;
  };

  explicit JsonExportSink(std::ostream& out);
  JsonExportSink(std::ostream& out, Options options);
  ~JsonExportSink() override;

  void on_population(const PopulationSample& sample) override;
  void on_provide(const ProvideSample& sample) override;
  void on_fetch(const FetchSample& sample) override;
  void on_content(const ContentSample& sample) override;
  void on_dataset(DatasetRole role, Dataset dataset) override;
  void on_run_end(const RunSummary& summary) override;

  [[nodiscard]] std::size_t exported_count() const noexcept { return exported_; }

 private:
  struct Spool;  // one per in-flight sample document; see sink.cpp

  /// The spool for `slot`, opened (and its document header written) on
  /// first use.
  Spool& spool(std::unique_ptr<Spool>& slot, std::string_view document_key);
  /// Close `slot`'s document and copy its bytes to the output.
  void splice(std::unique_ptr<Spool>& slot);

  std::ostream& out_;
  Options options_;
  std::size_t exported_ = 0;
  std::unique_ptr<Spool> population_;
  std::unique_ptr<Spool> provides_;
  std::unique_ptr<Spool> fetches_;
  std::unique_ptr<Spool> content_;
};

}  // namespace ipfs::measure
