#include "measure/sink.hpp"

#include <cstdio>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <type_traits>
#include <utility>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace ipfs::measure {

std::string_view to_string(DatasetRole role) noexcept {
  switch (role) {
    case DatasetRole::kVantage: return "vantage";
    case DatasetRole::kHydraHead: return "hydra-head";
    case DatasetRole::kHydraUnion: return "hydra-union";
    case DatasetRole::kOther: break;
  }
  return "other";
}

std::optional<DatasetRole> role_from_string(std::string_view name) noexcept {
  for (const DatasetRole role : {DatasetRole::kVantage, DatasetRole::kHydraHead,
                                 DatasetRole::kHydraUnion, DatasetRole::kOther}) {
    if (to_string(role) == name) return role;
  }
  return std::nullopt;
}

std::pair<std::size_t, std::size_t> crawler_min_max(
    std::span<const CrawlObservation> crawls) noexcept {
  common::MinMaxBand band;
  for (const CrawlObservation& crawl : crawls) {
    band.add(crawl.reached_servers, crawl.learned_pids);
  }
  return band.band();
}

const Dataset* CollectingSink::find(DatasetRole role) const noexcept {
  for (const Entry& entry : datasets_) {
    if (entry.role == role) return &entry.dataset;
  }
  return nullptr;
}

void ReplaySink::on_run_begin(const std::string& description) {
  events_.push_back(BeginEvent{description});
}

void ReplaySink::on_crawl(const CrawlObservation& crawl) { events_.push_back(crawl); }

void ReplaySink::on_population(const PopulationSample& sample) {
  events_.push_back(sample);
}

void ReplaySink::on_provide(const ProvideSample& sample) {
  events_.push_back(sample);
}

void ReplaySink::on_fetch(const FetchSample& sample) { events_.push_back(sample); }

void ReplaySink::on_content(const ContentSample& sample) {
  events_.push_back(sample);
}

void ReplaySink::on_dataset(DatasetRole role, Dataset dataset) {
  events_.push_back(DatasetEvent{role, std::move(dataset)});
}

void ReplaySink::on_run_end(const RunSummary& summary) { events_.push_back(summary); }

void ReplaySink::replay(MeasurementSink& sink) {
  for (Event& event : events_) {
    std::visit(
        [&sink](auto& e) {
          using T = std::decay_t<decltype(e)>;
          if constexpr (std::is_same_v<T, BeginEvent>) {
            sink.on_run_begin(e.description);
          } else if constexpr (std::is_same_v<T, CrawlObservation>) {
            sink.on_crawl(e);
          } else if constexpr (std::is_same_v<T, PopulationSample>) {
            sink.on_population(e);
          } else if constexpr (std::is_same_v<T, ProvideSample>) {
            sink.on_provide(e);
          } else if constexpr (std::is_same_v<T, FetchSample>) {
            sink.on_fetch(e);
          } else if constexpr (std::is_same_v<T, ContentSample>) {
            sink.on_content(e);
          } else if constexpr (std::is_same_v<T, DatasetEvent>) {
            sink.on_dataset(e.role, std::move(e.dataset));
          } else {
            sink.on_run_end(e);
          }
        },
        event);
  }
  events_.clear();
}

void FanOutSink::on_run_begin(const std::string& description) {
  for (MeasurementSink* sink : sinks_) sink->on_run_begin(description);
}

void FanOutSink::on_crawl(const CrawlObservation& crawl) {
  for (MeasurementSink* sink : sinks_) sink->on_crawl(crawl);
}

void FanOutSink::on_population(const PopulationSample& sample) {
  for (MeasurementSink* sink : sinks_) sink->on_population(sample);
}

void FanOutSink::on_provide(const ProvideSample& sample) {
  for (MeasurementSink* sink : sinks_) sink->on_provide(sample);
}

void FanOutSink::on_fetch(const FetchSample& sample) {
  for (MeasurementSink* sink : sinks_) sink->on_fetch(sample);
}

void FanOutSink::on_content(const ContentSample& sample) {
  for (MeasurementSink* sink : sinks_) sink->on_content(sample);
}

void FanOutSink::on_dataset(DatasetRole role, Dataset dataset) {
  if (sinks_.empty()) return;
  for (std::size_t i = 0; i + 1 < sinks_.size(); ++i) {
    sinks_[i]->on_dataset(role, dataset);  // copy for all but the last
  }
  sinks_.back()->on_dataset(role, std::move(dataset));
}

void FanOutSink::on_run_end(const RunSummary& summary) {
  for (MeasurementSink* sink : sinks_) sink->on_run_end(summary);
}

namespace {

/// Minimal write-only streambuf over a C `FILE*`: lets a `JsonWriter`
/// render straight into a `std::tmpfile()` spool.
class FileStreambuf final : public std::streambuf {
 public:
  explicit FileStreambuf(std::FILE* file) : file_(file) {}

 protected:
  int overflow(int ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    return std::fputc(ch, file_) == EOF ? traits_type::eof() : ch;
  }
  std::streamsize xsputn(const char* data, std::streamsize count) override {
    return static_cast<std::streamsize>(
        std::fwrite(data, 1, static_cast<std::size_t>(count), file_));
  }

 private:
  std::FILE* file_;
};

}  // namespace

/// One in-flight sample document.  Samples render into the spool as they
/// arrive; at run end the finished document is copied to the output and the
/// spool discarded.  The backing store is an unnamed temporary file so
/// memory stays O(1) in the sample count; when the platform refuses a
/// tmpfile the spool degrades to an in-memory buffer (same bytes, old
/// memory profile).
struct JsonExportSink::Spool {
  std::FILE* file = nullptr;
  std::optional<FileStreambuf> filebuf;
  std::ostringstream memory;  ///< fallback when `file` is null
  std::optional<std::ostream> stream;
  std::optional<common::JsonWriter> writer;

  ~Spool() {
    if (file != nullptr) std::fclose(file);
  }
};

JsonExportSink::JsonExportSink(std::ostream& out) : out_(out) {}

JsonExportSink::JsonExportSink(std::ostream& out, Options options)
    : out_(out), options_(options) {}

JsonExportSink::~JsonExportSink() = default;

JsonExportSink::Spool& JsonExportSink::spool(std::unique_ptr<Spool>& slot,
                                             std::string_view document_key) {
  if (!slot) {
    slot = std::make_unique<Spool>();
    slot->file = std::tmpfile();
    if (slot->file != nullptr) {
      slot->filebuf.emplace(slot->file);
      slot->stream.emplace(&*slot->filebuf);
    } else {
      slot->stream.emplace(slot->memory.rdbuf());
    }
    slot->writer.emplace(*slot->stream, options_.pretty);
    slot->writer->begin_object();
    slot->writer->key(document_key);
    slot->writer->begin_array();
  }
  return *slot;
}

void JsonExportSink::splice(std::unique_ptr<Spool>& slot) {
  if (!slot) return;
  slot->writer->end_array();
  slot->writer->end_object();
  *slot->stream << "\n";
  slot->stream->flush();
  if (slot->file != nullptr) {
    std::fflush(slot->file);
    std::rewind(slot->file);
    char buffer[1 << 16];
    std::size_t count = 0;
    while ((count = std::fread(buffer, 1, sizeof buffer, slot->file)) > 0) {
      out_.write(buffer, static_cast<std::streamsize>(count));
    }
    if (std::ferror(slot->file) != 0) {
      // fread stops on error as well as EOF; without this the export would
      // be silently truncated mid-document.
      out_.setstate(std::ios_base::failbit);
    }
  } else {
    out_ << slot->memory.str();
  }
  slot.reset();
}

void JsonExportSink::on_population(const PopulationSample& sample) {
  Spool& spool = this->spool(population_, "population_samples");
  spool.writer->begin_object();
  spool.writer->field("at_ms", static_cast<std::int64_t>(sample.at));
  spool.writer->field("online", static_cast<std::uint64_t>(sample.online));
  spool.writer->field("total", static_cast<std::uint64_t>(sample.total));
  spool.writer->field("connected", static_cast<std::uint64_t>(sample.connected));
  spool.writer->end_object();
}

void JsonExportSink::on_provide(const ProvideSample& sample) {
  Spool& spool = this->spool(provides_, "provide_samples");
  spool.writer->begin_object();
  spool.writer->field("at_ms", static_cast<std::int64_t>(sample.at));
  spool.writer->field("key", static_cast<std::uint64_t>(sample.key));
  spool.writer->field("provider", static_cast<std::uint64_t>(sample.provider));
  spool.writer->field("republish", sample.republish);
  spool.writer->end_object();
}

void JsonExportSink::on_fetch(const FetchSample& sample) {
  Spool& spool = this->spool(fetches_, "fetch_samples");
  spool.writer->begin_object();
  spool.writer->field("at_ms", static_cast<std::int64_t>(sample.at));
  spool.writer->field("key", static_cast<std::uint64_t>(sample.key));
  spool.writer->field("found_provider", sample.found_provider);
  spool.writer->field("served", sample.served);
  spool.writer->field("latency_ms", static_cast<std::int64_t>(sample.latency));
  spool.writer->end_object();
}

void JsonExportSink::on_content(const ContentSample& sample) {
  Spool& spool = this->spool(content_, "content_samples");
  spool.writer->begin_object();
  spool.writer->field("at_ms", static_cast<std::int64_t>(sample.at));
  spool.writer->field("vantage_records",
                      static_cast<std::uint64_t>(sample.vantage_records));
  spool.writer->field("vantage_keys",
                      static_cast<std::uint64_t>(sample.vantage_keys));
  spool.writer->field("true_records",
                      static_cast<std::uint64_t>(sample.true_records));
  spool.writer->end_object();
}

void JsonExportSink::on_dataset(DatasetRole role, Dataset dataset) {
  if (options_.role_filter && *options_.role_filter != role) return;
  dataset.export_json(out_, options_.include_connections, options_.pretty);
  out_ << "\n";
  ++exported_;
}

void JsonExportSink::on_run_end(const RunSummary& summary) {
  // Non-churned, non-content runs opened no spool and export nothing extra
  // here, so legacy exports stay byte-identical.
  splice(population_);
  splice(provides_);
  splice(fetches_);
  splice(content_);
  // Phased runs append one `phase_breakdown` document: the per-phase
  // activity totals.  Empty unless a phase program ran, so non-phased
  // exports stay byte-identical.
  if (summary.phases.empty()) return;
  common::JsonWriter writer(out_, options_.pretty);
  writer.begin_object();
  writer.key("phase_breakdown");
  writer.begin_array();
  for (const PhaseSummary& phase : summary.phases) {
    writer.begin_object();
    writer.field("name", std::string_view(phase.name));
    writer.field("mode", std::string_view(phase.mode));
    writer.field("start_ms", static_cast<std::int64_t>(phase.start));
    writer.field("hold_ms", static_cast<std::int64_t>(phase.hold));
    writer.field("sessions", phase.sessions);
    writer.field("provides", phase.provides);
    writer.field("fetches", phase.fetches);
    writer.field("crawls", phase.crawls);
    writer.end_object();
  }
  writer.end_array();
  writer.end_object();
  out_ << "\n";
}

}  // namespace ipfs::measure
