// Core performance suite — the recorded perf trajectory of this repo.
//
// Unlike `ipfs_sim reproduce` (which reproduces the paper's numbers), this
// binary times the hot paths the simulator lives on and emits the
// results as machine-readable JSON (`BENCH_core.json`):
//
//   lookup       RoutingTable::add and ::closest throughput, the
//                bucket-walk selection vs. the old sort-everything baseline
//   event_queue  sim::Simulation schedule + drain churn
//   conditions   net::ConditionModel sampling (zoned one-way latency and
//                the composite dial gate) — the per-dial/per-send hot path
//   churn_model  scenario::ChurnModel pure per-(node, session) draws
//                (session lengths and diurnally modulated gaps)
//   content_model scenario::ContentModel pure per-(node, slot/fetch) draws
//                (publish counts and popularity-skewed fetch keys + gaps)
//   campaign     sequential vs. ParallelTrialRunner wall-clock for a
//                multi-seed campaign sweep
//   sharded_campaign
//                unsharded vs. intra-trial-sharded CampaignEngine
//                wall-clock for one churned campaign (DESIGN.md §13);
//                asserts the two exports are byte-identical before timing
//                means anything
//   phase_program
//                scenario::PhaseProgram::rates_at lookups (the per-draw
//                modulation hot path of DESIGN.md §14) plus the wall-clock
//                overhead a modulating program adds to one campaign
//   conn_trim    p2p::Swarm::trim_now, the entry point the engine's 10 s
//                trim tick calls, at P4's 18k/20k watermarks: an idle tick
//                just below high water and a trimming tick 5% above it
//   dataset_export
//                measure::Dataset::export_json on a P4-sized synthetic
//                dataset into a discarding stream, next to one copy (and
//                destruction) of the same dataset, the heap it holds per
//                peer, and the allocations of recording a known protocol
//   peerstore    p2p::Peerstore identify bookkeeping on a P4-shaped store:
//                first connect and identify of 32k peers, then an unchanged
//                re-identify and a reconnect of each, counting the heap
//                allocations a re-identify makes; then the same identifies
//                by slot with pre-interned protocol lists, as the campaign
//                engine makes them, and that path's re-identify speedup
//   population   scenario::Population build of P4's 3-day population at
//                scale 0.5: build time and heap per peer, and how many
//                distinct agents and protocol sets its tables hold
//   content_fabric
//                one content-baseline campaign at scale 0.05, whose server
//                vantage's Bitswap swarm trims the content fabric: wall
//                clock and heap allocations per fetch
//
// Each section's output is one json_schema field list beside its numbers
// struct (DESIGN.md §8).  That list writes the section into the JSON, prints
// it as the section's one-line summary, and reads a committed baseline
// strictly: a missing or unknown field fails with its path.
//
// Usage:  perf_suite [--smoke] [--out FILE] [--check-baseline FILE]
//   --smoke           tiny sizes for CI (seconds, no timing assertions)
//   --out             output path, default ./BENCH_core.json; naming the
//                     --check-baseline file exits 2 before anything runs
//   --check-baseline  read a committed BENCH_core.json before any section
//                     runs (exit 1 when it does not match the schema), then
//                     check this run against the guards of kGuards below
//                     (exit 1 when one fails)
// Each flag may be given once.
// The campaign sections run P4 at scale 0.05 (0.005 with --smoke) on seed
// 20211203 (see bench/README.md).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <malloc.h>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/json_schema.hpp"
#include "common/rng.hpp"
#include "dht/routing_table.hpp"
#include "measure/dataset.hpp"
#include "net/conditions.hpp"
#include "p2p/peerstore.hpp"
#include "p2p/protocols.hpp"
#include "p2p/swarm.hpp"
#include "runtime/parallel.hpp"
#include "runtime/sharded.hpp"
#include "runtime/worker_budget.hpp"
#include "scenario/campaign.hpp"
#include "scenario/churn.hpp"
#include "scenario/content.hpp"
#include "scenario/phases.hpp"
#include "scenario/population.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/reference_scheduler.hpp"
#include "sim/simulation.hpp"

// Every heap allocation on a thread bumps that thread's counter, so the
// peerstore and content_fabric sections can count what a call allocates.
namespace {
thread_local std::uint64_t allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++allocations;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace {

// Campaign sections run well below full December-2021 scale so the suite
// finishes in seconds.
double campaign_scale(bool smoke) { return smoke ? 0.005 : 0.05; }
constexpr std::uint64_t kCampaignSeed = 20211203;

/// Obtain an engine through the validating factory, exiting loudly on a
/// config error (there is nothing to recover).
ipfs::scenario::CampaignEngine make_engine(ipfs::scenario::CampaignConfig config) {
  auto engine = ipfs::scenario::CampaignEngine::create(std::move(config));
  if (!engine) {
    std::cerr << "invalid campaign config: " << engine.error() << "\n";
    std::exit(2);
  }
  return std::move(*engine);
}

using namespace ipfs::common::json_schema;
using ipfs::common::JsonValue;
using ipfs::common::JsonWriter;
using ipfs::common::Rng;
using ipfs::dht::closer_to;
using ipfs::dht::RoutingTable;
using ipfs::p2p::PeerId;

double elapsed_ms(const std::chrono::steady_clock::time_point start) {
  const auto delta = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(delta).count();
}

// ---- lookup: closest() selection vs. sort-everything baseline --------------

struct LookupNumbers {
  std::size_t table_size = 0;
  std::size_t queries = 0;
  double add_ns = 0.0;       ///< per RoutingTable::add while filling the table
  double closest_ns = 0.0;   ///< per query, bucket-walk selection
  double baseline_ns = 0.0;  ///< per query, all_peers() + full sort
  double speedup = 0.0;      ///< baseline_ns / closest_ns
};

constexpr Field<LookupNumbers> kLookupFields[] = {
    {"table_size", &LookupNumbers::table_size, kRequired},
    {"queries", &LookupNumbers::queries, kRequired},
    {"add_ns_per_insert", &LookupNumbers::add_ns, kRequired},
    {"closest_ns_per_query", &LookupNumbers::closest_ns, kRequired},
    {"sort_baseline_ns_per_query", &LookupNumbers::baseline_ns, kRequired},
    {"speedup", &LookupNumbers::speedup, kRequired},
};

/// The pre-optimization implementation, kept callable as the baseline.
std::vector<PeerId> sort_everything_closest(const RoutingTable& table,
                                            const PeerId& target, std::size_t count) {
  std::vector<PeerId> peers = table.all_peers();
  std::sort(peers.begin(), peers.end(), [&](const PeerId& a, const PeerId& b) {
    return closer_to(target, a, b);
  });
  if (peers.size() > count) peers.resize(count);
  return peers;
}

LookupNumbers bench_lookup(bool smoke) {
  Rng rng(0x100c0);
  const PeerId self = PeerId::random(rng);
  RoutingTable table(self);
  // Random identities fill the shallow buckets; near-self identities fill
  // the deep ones — together a realistically shaped table.  They are drawn
  // before the timed inserts, most of which find their bucket full.
  const std::size_t inserts = smoke ? 5'000 : 200'000;
  std::vector<PeerId> identities;
  identities.reserve(inserts);
  for (std::size_t i = 0; i < inserts; ++i) {
    identities.push_back(
        rng.bernoulli(0.2)
            ? PeerId::with_prefix(self.prefix64(),
                                  1 + static_cast<unsigned>(rng.uniform_u64(40)), rng)
            : PeerId::random(rng));
  }

  LookupNumbers numbers;
  auto start = std::chrono::steady_clock::now();
  for (const PeerId& peer : identities) table.add(peer, 0);
  numbers.add_ns = elapsed_ms(start) * 1e6 / static_cast<double>(inserts);
  numbers.table_size = table.size();
  numbers.queries = smoke ? 200 : 20'000;
  std::vector<PeerId> targets;
  targets.reserve(numbers.queries);
  for (std::size_t i = 0; i < numbers.queries; ++i) {
    targets.push_back(PeerId::random(rng));
  }

  std::size_t checksum = 0;
  start = std::chrono::steady_clock::now();
  for (const PeerId& target : targets) {
    checksum += table.closest(target, RoutingTable::kBucketSize).size();
  }
  numbers.closest_ns = elapsed_ms(start) * 1e6 / static_cast<double>(numbers.queries);

  std::size_t baseline_checksum = 0;
  start = std::chrono::steady_clock::now();
  for (const PeerId& target : targets) {
    baseline_checksum +=
        sort_everything_closest(table, target, RoutingTable::kBucketSize).size();
  }
  numbers.baseline_ns = elapsed_ms(start) * 1e6 / static_cast<double>(numbers.queries);
  numbers.speedup = numbers.baseline_ns / numbers.closest_ns;

  if (checksum != baseline_checksum) {
    std::cerr << "lookup checksum mismatch: " << checksum << " vs "
              << baseline_checksum << "\n";
    std::exit(1);
  }
  return numbers;
}

// ---- event queue: schedule + drain churn -----------------------------------

struct EventQueueNumbers {
  std::size_t events = 0;
  double ns_per_event = 0.0;       ///< bulk load: schedule all, then drain
  double events_per_sec = 0.0;     ///< 1e9 / ns_per_event
  double hold_ns_per_event = 0.0;  ///< steady state: each event reschedules
  double heap_ns_per_event = 0.0;  ///< ReferenceHeapSimulation, bulk workload
  double speedup_vs_heap = 0.0;
};

constexpr Field<EventQueueNumbers> kEventQueueFields[] = {
    {"events", &EventQueueNumbers::events, kRequired},
    {"ns_per_event", &EventQueueNumbers::ns_per_event, kRequired},
    {"events_per_sec", &EventQueueNumbers::events_per_sec, kRequired},
    {"hold_ns_per_event", &EventQueueNumbers::hold_ns_per_event, kRequired},
    {"heap_baseline_ns_per_event", &EventQueueNumbers::heap_ns_per_event, kRequired},
    {"speedup_vs_heap", &EventQueueNumbers::speedup_vs_heap, kRequired},
};

/// Bulk shape: schedule `events` one-shot events at uniform times, then drain.
/// This is the historical `ns_per_event` metric (guardrail continuity).
template <typename Sim>
double bulk_workload_ns(std::size_t events) {
  Rng rng(0xe7e);
  Sim simulation;
  volatile std::uint64_t sink_value = 0;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < events; ++i) {
    simulation.schedule_at(
        static_cast<ipfs::common::SimTime>(rng.uniform_u64(events)),
        [&sink_value] { sink_value = sink_value + 1; });
  }
  simulation.run();
  const double ns = elapsed_ms(start) * 1e6 / static_cast<double>(events);

  if (simulation.executed_events() != events) {
    std::cerr << "event count mismatch\n";
    std::exit(1);
  }
  return ns;
}

/// Hold shape (classic event-queue benchmark): a steady queue of `depth`
/// pending events where every execution schedules one successor — the shape
/// of a running campaign, where timers reschedule and arena slots recycle.
double hold_workload_ns(std::size_t events) {
  struct Ctx {
    ipfs::sim::Simulation simulation;
    Rng rng{0x401d};
    std::uint64_t executed = 0;
  } ctx;
  constexpr std::size_t kDepth = 10'000;
  // Single-pointer capture: stays within std::function's inline buffer, so
  // the measurement is the queue, not closure heap allocation.
  const auto hop = [&ctx](auto&& self) -> void {
    ++ctx.executed;
    ctx.simulation.schedule_after(
        static_cast<ipfs::common::SimDuration>(ctx.rng.uniform_u64(10'000) + 1),
        [&ctx, self] { self(self); });
  };
  for (std::size_t i = 0; i < kDepth; ++i) {
    ctx.simulation.schedule_at(
        static_cast<ipfs::common::SimTime>(ctx.rng.uniform_u64(10'000)),
        [&ctx, hop] { hop(hop); });
  }

  const auto start = std::chrono::steady_clock::now();
  std::size_t steps = 0;
  while (steps < events && ctx.simulation.step()) ++steps;
  const double ns = elapsed_ms(start) * 1e6 / static_cast<double>(steps);

  if (ctx.executed < events) {
    std::cerr << "hold workload drained early\n";
    std::exit(1);
  }
  return ns;
}

EventQueueNumbers bench_event_queue(std::size_t events) {
  EventQueueNumbers numbers;
  numbers.events = events;
  numbers.ns_per_event = bulk_workload_ns<ipfs::sim::Simulation>(numbers.events);
  numbers.events_per_sec = 1e9 / numbers.ns_per_event;
  numbers.hold_ns_per_event = hold_workload_ns(numbers.events);
  // Same workload, same process, same host: the retained binary-heap engine
  // (the oracle of tests/sim/scheduler_oracle_test.cpp) as the baseline.
  numbers.heap_ns_per_event =
      bulk_workload_ns<ipfs::sim::ReferenceHeapSimulation>(numbers.events);
  numbers.speedup_vs_heap = numbers.heap_ns_per_event / numbers.ns_per_event;
  return numbers;
}

// ---- conditions: ConditionModel sampling hot path ---------------------------

struct ConditionNumbers {
  std::size_t samples = 0;
  double one_way_ns = 0.0;  ///< per sample, zoned latency (zone lookup + jitter)
  double gate_ns = 0.0;     ///< per sample, composite dial_allowed verdict
};

constexpr Field<ConditionNumbers> kConditionFields[] = {
    {"samples", &ConditionNumbers::samples, kRequired},
    {"one_way_ns_per_sample", &ConditionNumbers::one_way_ns, kRequired},
    {"dial_gate_ns_per_sample", &ConditionNumbers::gate_ns, kRequired},
};

ConditionNumbers bench_conditions(bool smoke) {
  // A representative zoned spec: four zones, partial link matrix, NAT
  // classes, loss, and one recurring degrade window — every branch of the
  // per-dial sampling path is live.
  ipfs::net::ConditionSpec spec;
  spec.zones = {
      {.name = "eu", .weight = 0.35, .intra_min = 8, .intra_max = 28},
      {.name = "na", .weight = 0.30, .intra_min = 10, .intra_max = 32},
      {.name = "ap", .weight = 0.25, .intra_min = 12, .intra_max = 36},
      {.name = "sa", .weight = 0.10, .intra_min = 14, .intra_max = 40},
  };
  spec.links = {
      {.from = "eu", .to = "na", .min_one_way = 40, .max_one_way = 70},
      {.from = "eu", .to = "ap", .min_one_way = 120, .max_one_way = 180},
  };
  spec.loss.dial_failure = 0.05;
  spec.nat.classes = {
      {.name = "public", .weight = 0.6, .accepts_inbound = true},
      {.name = "nat", .weight = 0.4, .accepts_inbound = false},
  };
  spec.disturbances = {{.kind = ipfs::net::DisturbanceSpec::Kind::kDegrade,
                        .zone = "ap",
                        .from = 2 * ipfs::common::kHour,
                        .until = 8 * ipfs::common::kHour,
                        .period = 24 * ipfs::common::kHour,
                        .latency_factor = 2.0,
                        .extra_loss = 0.1}};
  const ipfs::net::ConditionModel model(spec, 0xbe7c);

  ConditionNumbers numbers;
  numbers.samples = smoke ? 20'000 : 2'000'000;
  Rng rng(0xc07d);
  std::vector<PeerId> peers;
  peers.reserve(256);
  for (int i = 0; i < 256; ++i) peers.push_back(PeerId::random(rng));

  Rng jitter(0x177e4);
  std::uint64_t latency_checksum = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < numbers.samples; ++i) {
    const PeerId& a = peers[i % peers.size()];
    const PeerId& b = peers[(i * 31 + 7) % peers.size()];
    const auto now = static_cast<ipfs::common::SimTime>(i % (24 * 3600'000));
    latency_checksum +=
        static_cast<std::uint64_t>(model.one_way(a, b, now, jitter));
  }
  numbers.one_way_ns =
      elapsed_ms(start) * 1e6 / static_cast<double>(numbers.samples);

  std::size_t allowed = 0;
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < numbers.samples; ++i) {
    const PeerId& a = peers[i % peers.size()];
    const PeerId& b = peers[(i * 17 + 3) % peers.size()];
    const auto now = static_cast<ipfs::common::SimTime>(i % (24 * 3600'000));
    allowed += model.dial_allowed(a, b, now) ? 1 : 0;
  }
  numbers.gate_ns = elapsed_ms(start) * 1e6 / static_cast<double>(numbers.samples);

  if (latency_checksum == 0 || allowed == 0 || allowed == numbers.samples) {
    std::cerr << "conditions checksum implausible: latency=" << latency_checksum
              << " allowed=" << allowed << "/" << numbers.samples << "\n";
    std::exit(1);
  }
  return numbers;
}

// ---- churn_model: ChurnModel per-(node, session) sampling -------------------

struct ChurnModelNumbers {
  std::size_t samples = 0;
  double session_ns = 0.0;  ///< per draw, Weibull session length
  double gap_ns = 0.0;      ///< per draw, lognormal gap with diurnal modulation
};

constexpr Field<ChurnModelNumbers> kChurnModelFields[] = {
    {"samples", &ChurnModelNumbers::samples, kRequired},
    {"session_ns_per_draw", &ChurnModelNumbers::session_ns, kRequired},
    {"gap_ns_per_draw", &ChurnModelNumbers::gap_ns, kRequired},
};

ChurnModelNumbers bench_churn_model(bool smoke) {
  // A representative churned-campaign spec: heavy-tailed Weibull sessions,
  // lognormal gaps, a category override and diurnal modulation — every
  // branch of the per-lifecycle-event sampling path is live.
  ipfs::scenario::ChurnSpec spec;
  ipfs::scenario::ChurnCategorySpec core;
  core.category = ipfs::scenario::Category::kCoreServer;
  core.session = ipfs::scenario::SessionDistribution::weibull(0.9, 86'400'000.0);
  core.gap = ipfs::scenario::SessionDistribution::exponential(3'600'000.0);
  spec.categories = {core};
  spec.diurnal = ipfs::scenario::DiurnalSpec{
      .amplitude = 0.7, .period = 24 * ipfs::common::kHour,
      .phase = 12 * ipfs::common::kHour};
  const ipfs::scenario::ChurnModel model(spec, 0xc402);

  ChurnModelNumbers numbers;
  numbers.samples = smoke ? 20'000 : 2'000'000;

  std::uint64_t session_checksum = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < numbers.samples; ++i) {
    const auto node = static_cast<std::uint32_t>(i & 0x3fff);
    const auto session = static_cast<std::uint32_t>(i >> 14);
    session_checksum += static_cast<std::uint64_t>(model.session_length(
        node, session,
        (i & 7) != 0 ? ipfs::scenario::Category::kNormalUser
                     : ipfs::scenario::Category::kCoreServer));
  }
  numbers.session_ns =
      elapsed_ms(start) * 1e6 / static_cast<double>(numbers.samples);

  std::uint64_t gap_checksum = 0;
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < numbers.samples; ++i) {
    const auto node = static_cast<std::uint32_t>(i & 0x3fff);
    const auto session = static_cast<std::uint32_t>(i >> 14);
    const auto at = static_cast<ipfs::common::SimTime>(i % (48 * 3600'000));
    gap_checksum += static_cast<std::uint64_t>(model.gap_length(
        node, session, at,
        (i & 7) != 0 ? ipfs::scenario::Category::kNormalUser
                     : ipfs::scenario::Category::kCoreServer));
  }
  numbers.gap_ns = elapsed_ms(start) * 1e6 / static_cast<double>(numbers.samples);

  if (session_checksum == 0 || gap_checksum == 0) {
    std::cerr << "churn_model checksum implausible\n";
    std::exit(1);
  }
  return numbers;
}

// ---- content_model: ContentModel per-(node, slot/fetch) sampling ------------

struct ContentModelNumbers {
  std::size_t samples = 0;
  double publish_ns = 0.0;  ///< per draw, publish count + key + delay chain
  double fetch_ns = 0.0;    ///< per draw, fetch gap + skewed key + serve gate
};

constexpr Field<ContentModelNumbers> kContentModelFields[] = {
    {"samples", &ContentModelNumbers::samples, kRequired},
    {"publish_chain_ns_per_draw", &ContentModelNumbers::publish_ns, kRequired},
    {"fetch_chain_ns_per_draw", &ContentModelNumbers::fetch_ns, kRequired},
};

ContentModelNumbers bench_content_model(bool smoke) {
  // A representative content-campaign spec: category overrides on both
  // rates so the per-draw override lookup is live, default keyspace.
  ipfs::scenario::ContentSpec spec;
  ipfs::scenario::ContentCategorySpec core;
  core.category = ipfs::scenario::Category::kCoreServer;
  core.publishes_per_peer = 8.0;
  core.fetches_per_hour = 0.25;
  spec.categories = {core};
  const ipfs::scenario::ContentModel model(spec, 0xc047);

  ContentModelNumbers numbers;
  numbers.samples = smoke ? 20'000 : 2'000'000;
  constexpr std::uint32_t kKeyspace = 512;

  std::uint64_t publish_checksum = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < numbers.samples; ++i) {
    const auto node = static_cast<std::uint32_t>(i & 0x3fff);
    const auto slot = static_cast<std::uint32_t>(i >> 14);
    const auto category = (i & 7) != 0 ? ipfs::scenario::Category::kNormalUser
                                       : ipfs::scenario::Category::kCoreServer;
    publish_checksum += model.publish_count(node, category);
    publish_checksum += model.key_for(node, slot, kKeyspace);
    publish_checksum +=
        static_cast<std::uint64_t>(model.initial_publish_delay(node, slot));
  }
  numbers.publish_ns =
      elapsed_ms(start) * 1e6 / static_cast<double>(numbers.samples);

  std::uint64_t fetch_checksum = 0;
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < numbers.samples; ++i) {
    const auto node = static_cast<std::uint32_t>(i & 0x3fff);
    const auto fetch = static_cast<std::uint32_t>(i >> 14);
    const auto category = (i & 7) != 0 ? ipfs::scenario::Category::kNormalUser
                                       : ipfs::scenario::Category::kCoreServer;
    fetch_checksum +=
        static_cast<std::uint64_t>(model.fetch_gap(node, fetch, category));
    fetch_checksum += model.fetch_key(node, fetch, kKeyspace);
    fetch_checksum += model.fetch_served(node, fetch) ? 1 : 0;
  }
  numbers.fetch_ns = elapsed_ms(start) * 1e6 / static_cast<double>(numbers.samples);

  if (publish_checksum == 0 || fetch_checksum == 0) {
    std::cerr << "content_model checksum implausible\n";
    std::exit(1);
  }
  return numbers;
}

// ---- campaign: sequential loop vs. ParallelTrialRunner ----------------------

/// The `speedup` of a section that writes a `note` in its place on a
/// single-core host: written only without a note, and optional when read,
/// as the note is.
template <class T>
constexpr Custom<T> kSpeedupUnlessNoted{
    [](const JsonValue& value, const std::string& path, T& out) {
      return read(value, path, out.speedup);
    },
    [](JsonWriter& writer, std::string_view key, const T& in) {
      if (in.note.empty()) writer.field(key, in.speedup);
    }};

struct CampaignNumbers {
  std::size_t trials = 0;
  double scale = 0.0;
  unsigned workers = 0;
  unsigned hardware_concurrency = 0;
  double sequential_ms = 0.0;
  double parallel_ms = 0.0;
  double speedup = 0.0;  ///< sequential_ms / parallel_ms, unless noted
  std::string note;
};

constexpr Field<CampaignNumbers> kCampaignFields[] = {
    {"trials", &CampaignNumbers::trials, kRequired},
    {"scale", &CampaignNumbers::scale, kRequired},
    {"workers", &CampaignNumbers::workers, kRequired},
    {"hardware_concurrency", &CampaignNumbers::hardware_concurrency, kRequired},
    {"sequential_ms", &CampaignNumbers::sequential_ms, kRequired},
    {"parallel_ms", &CampaignNumbers::parallel_ms, kRequired},
    {"speedup", kSpeedupUnlessNoted<CampaignNumbers>},
    {"note", optional_string<&CampaignNumbers::note>()},
};

CampaignNumbers bench_campaign(bool smoke) {
  namespace scenario = ipfs::scenario;
  namespace runtime = ipfs::runtime;

  scenario::CampaignConfig base;
  base.period = scenario::PeriodSpec::P4();
  base.period.duration = (smoke ? 1 : 6) * ipfs::common::kHour;
  const double scale = campaign_scale(smoke);
  base.population = scenario::PopulationSpec::test_scale(scale);

  const std::size_t trial_count = smoke ? 2 : 4;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < trial_count; ++i) {
    seeds.push_back(kCampaignSeed + i);
  }
  const auto trials = runtime::ParallelTrialRunner::seed_sweep(base, seeds);

  CampaignNumbers numbers;
  numbers.trials = trial_count;
  numbers.scale = scale;

  ipfs::measure::MeasurementSink devnull;  // hooks are no-ops by default
  auto start = std::chrono::steady_clock::now();
  for (const runtime::TrialSpec& trial : trials) {
    make_engine(trial.config).run(devnull);
  }
  numbers.sequential_ms = elapsed_ms(start);

  runtime::ParallelTrialRunner runner;
  numbers.workers = runner.resolve_workers(trial_count);
  start = std::chrono::steady_clock::now();
  const auto outcome = runner.run(trials, devnull);
  numbers.parallel_ms = elapsed_ms(start);
  if (!outcome.has_value()) {
    std::cerr << "parallel sweep failed: " << outcome.error() << "\n";
    std::exit(1);
  }
  // On a single-core host a "speedup" number is noise about stream
  // buffering, not parallelism — keep the explanation, drop the figure.
  numbers.hardware_concurrency = std::thread::hardware_concurrency();
  if (numbers.hardware_concurrency > 1) {
    numbers.speedup = numbers.sequential_ms / numbers.parallel_ms;
  } else {
    numbers.note =
        "single-core host (see hardware_concurrency): the parallel "
        "path degenerates to the sequential loop plus per-trial "
        "stream buffering, so a speedup figure would only measure "
        "buffering overhead and is omitted";
  }
  return numbers;
}

// ---- sharded_campaign: unsharded vs. intra-trial-sharded engine -------------

struct ShardedCampaignNumbers {
  double scale = 0.0;
  unsigned shards = 0;
  unsigned workers = 0;
  unsigned hardware_concurrency = 0;
  double sequential_ms = 0.0;
  double sharded_ms = 0.0;
  bool bytes_identical = false;
  double speedup = 0.0;  ///< sequential_ms / sharded_ms, unless noted
  std::string note;
};

constexpr Field<ShardedCampaignNumbers> kShardedCampaignFields[] = {
    {"scale", &ShardedCampaignNumbers::scale, kRequired},
    {"shards", &ShardedCampaignNumbers::shards, kRequired},
    {"workers", &ShardedCampaignNumbers::workers, kRequired},
    {"hardware_concurrency", &ShardedCampaignNumbers::hardware_concurrency, kRequired},
    {"sequential_ms", &ShardedCampaignNumbers::sequential_ms, kRequired},
    {"sharded_ms", &ShardedCampaignNumbers::sharded_ms, kRequired},
    {"bytes_identical", &ShardedCampaignNumbers::bytes_identical, kRequired},
    {"speedup", kSpeedupUnlessNoted<ShardedCampaignNumbers>},
    {"note", optional_string<&ShardedCampaignNumbers::note>()},
};

ShardedCampaignNumbers bench_sharded_campaign(bool smoke) {
  namespace scenario = ipfs::scenario;
  namespace runtime = ipfs::runtime;

  // One churned campaign (every peer joins and leaves, so the sharded
  // sample tallies sweep a moving population), run twice: plain sequential engine, then with a ShardPlan injected.
  // Byte-identity of the two exports is asserted before the timings are
  // reported — a fast sharded engine that moved a byte is a bug, not a win.
  scenario::CampaignConfig config;
  config.period = scenario::PeriodSpec::P4();
  config.period.duration = (smoke ? 1 : 6) * ipfs::common::kHour;
  const double scale = campaign_scale(smoke);
  config.population = scenario::PopulationSpec::test_scale(scale);
  config.seed = kCampaignSeed;
  config.churn.emplace();  // default ChurnSpec: the lifecycle engine is live

  ShardedCampaignNumbers numbers;
  numbers.scale = scale;
  numbers.shards = 4;
  numbers.workers = runtime::WorkerBudget::hardware();

  std::ostringstream sequential_out;
  auto start = std::chrono::steady_clock::now();
  {
    ipfs::measure::JsonExportSink sink(sequential_out);
    make_engine(config).run(sink);
  }
  numbers.sequential_ms = elapsed_ms(start);

  std::ostringstream sharded_out;
  start = std::chrono::steady_clock::now();
  {
    ipfs::measure::JsonExportSink sink(sharded_out);
    runtime::ShardedCampaignRunner runner(
        {.shards = numbers.shards, .workers = numbers.workers});
    const auto outcome = runner.run(config, sink);
    if (!outcome.has_value()) {
      std::cerr << "sharded campaign failed: " << outcome.error() << "\n";
      std::exit(1);
    }
  }
  numbers.sharded_ms = elapsed_ms(start);

  if (sequential_out.str() != sharded_out.str()) {
    std::cerr << "sharded_campaign: export bytes diverged from the "
                 "sequential oracle — determinism regression\n";
    std::exit(1);
  }
  numbers.bytes_identical = true;
  // Same single-core policy as the campaign section: without a second
  // core the fan-outs serialize onto the caller and a speedup figure
  // would only measure pool overhead.
  numbers.hardware_concurrency = std::thread::hardware_concurrency();
  if (numbers.hardware_concurrency > 1) {
    numbers.speedup = numbers.sequential_ms / numbers.sharded_ms;
  } else {
    numbers.note =
        "single-core host (see hardware_concurrency): shard "
        "fan-outs serialize onto the calling thread, so a speedup "
        "figure would only measure fork-join overhead and is "
        "omitted";
  }
  return numbers;
}

// ---- phase_program: rates_at lookups + campaign modulation overhead ---------

struct PhaseProgramNumbers {
  std::size_t samples = 0;
  double rates_ns = 0.0;   ///< per rates_at lookup, 4-phase mixed program
  double plain_ms = 0.0;   ///< churn+content campaign, no phases
  double phased_ms = 0.0;  ///< same campaign with a modulating program
  double overhead = 0.0;   ///< phased_ms / plain_ms
};

constexpr Field<PhaseProgramNumbers> kPhaseProgramFields[] = {
    {"samples", &PhaseProgramNumbers::samples, kRequired},
    {"rates_ns_per_lookup", &PhaseProgramNumbers::rates_ns, kRequired},
    {"plain_campaign_ms", &PhaseProgramNumbers::plain_ms, kRequired},
    {"phased_campaign_ms", &PhaseProgramNumbers::phased_ms, kRequired},
    {"overhead", &PhaseProgramNumbers::overhead, kRequired},
};

PhaseProgramNumbers bench_phase_program(bool smoke) {
  namespace scenario = ipfs::scenario;

  // A representative program exercising every mode branch of the lookup:
  // hold, ramp interpolation, burst cycle division, and the flash-crowd
  // spike fields.
  const ipfs::common::SimDuration hold = 90 * ipfs::common::kMinute;
  scenario::PhaseSpec calm;
  calm.hold = hold;
  scenario::PhaseSpec climb;
  climb.mode = scenario::PhaseMode::kRamp;
  climb.hold = hold;
  climb.churn_rate = 2.5;
  climb.fetch_rate = 3.0;
  scenario::PhaseSpec storm;
  storm.mode = scenario::PhaseMode::kBurst;
  storm.hold = hold;
  storm.fetch_rate = 4.0;
  storm.switch_interval = 20 * ipfs::common::kMinute;
  scenario::PhaseSpec flash;
  flash.mode = scenario::PhaseMode::kFlashCrowd;
  flash.hold = hold;
  flash.spike = 6.0;
  flash.hot_fraction = 0.8;
  scenario::PhaseProgramSpec spec;
  spec.program = {calm, climb, storm, flash};
  const scenario::PhaseProgram program(spec);

  PhaseProgramNumbers numbers;
  numbers.samples = smoke ? 20'000 : 2'000'000;

  // The engine queries at event times, which stride forward but revisit
  // nearby values constantly; i * 31 over the program span approximates
  // that without a predictable per-phase sweep.
  const auto span = static_cast<std::uint64_t>(program.total_duration());
  double checksum = 0.0;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < numbers.samples; ++i) {
    const auto at = static_cast<ipfs::common::SimTime>((i * 31) % span);
    checksum += program.rates_at(at).fetch;
  }
  numbers.rates_ns = elapsed_ms(start) * 1e6 / static_cast<double>(numbers.samples);
  if (checksum <= 0.0) {
    std::cerr << "phase_program checksum implausible\n";
    std::exit(1);
  }

  // Modulation overhead: the same churn+content campaign with and without
  // a program whose every rate channel is live.
  scenario::CampaignConfig config;
  config.period = scenario::PeriodSpec::P4();
  config.period.duration = (smoke ? 1 : 6) * ipfs::common::kHour;
  const double scale = campaign_scale(smoke);
  config.population = scenario::PopulationSpec::test_scale(scale);
  config.seed = kCampaignSeed;
  config.churn.emplace();
  config.content.emplace();

  ipfs::measure::MeasurementSink devnull;
  start = std::chrono::steady_clock::now();
  make_engine(config).run(devnull);
  numbers.plain_ms = elapsed_ms(start);

  // Rescale the program to the campaign horizon (validate requires the
  // total hold to fit the period).
  const ipfs::common::SimDuration quarter = config.period.duration / 4;
  for (scenario::PhaseSpec& phase : spec.program) phase.hold = quarter;
  spec.program[2].switch_interval = quarter / 4;
  config.phases = spec;
  start = std::chrono::steady_clock::now();
  make_engine(config).run(devnull);
  numbers.phased_ms = elapsed_ms(start);
  numbers.overhead = numbers.phased_ms / numbers.plain_ms;
  return numbers;
}

// ---- conn_trim: Swarm::trim_now at P4's watermarks --------------------------

struct ConnTrimNumbers {
  int low_water = 0;
  int high_water = 0;
  std::size_t idle_open = 0;   ///< open connections during the idle ticks
  std::size_t idle_ticks = 0;
  double idle_tick_ns = 0.0;   ///< per trim_now call that trims nothing
  std::size_t trim_open = 0;   ///< open connections before each trimming tick
  std::size_t trim_reps = 0;
  std::size_t trimmed_per_tick = 0;
  double trim_tick_ns = 0.0;   ///< per trim_now call that trims to low water
  double idle_share = 0.0;     ///< idle_tick_ns / trim_tick_ns
};

constexpr Field<ConnTrimNumbers> kConnTrimFields[] = {
    {"low_water", &ConnTrimNumbers::low_water, kRequired},
    {"high_water", &ConnTrimNumbers::high_water, kRequired},
    {"idle_open", &ConnTrimNumbers::idle_open, kRequired},
    {"idle_ticks", &ConnTrimNumbers::idle_ticks, kRequired},
    {"idle_tick_ns", &ConnTrimNumbers::idle_tick_ns, kRequired},
    {"trim_open", &ConnTrimNumbers::trim_open, kRequired},
    {"trim_reps", &ConnTrimNumbers::trim_reps, kRequired},
    {"trimmed_per_tick", &ConnTrimNumbers::trimmed_per_tick, kRequired},
    {"trim_tick_ns", &ConnTrimNumbers::trim_tick_ns, kRequired},
    {"idle_share", &ConnTrimNumbers::idle_share, kRequired},
};

/// A go-ipfs vantage swarm at the given watermarks holding `open`
/// connections to distinct peers, every one past its grace period.  One
/// peer in five carries a DHT-style tag, as in a routing-table-heavy table.
std::unique_ptr<ipfs::p2p::Swarm> filled_swarm(ipfs::sim::Simulation& simulation,
                                               int low_water, int high_water,
                                               std::size_t open) {
  namespace p2p = ipfs::p2p;
  auto swarm = std::make_unique<p2p::Swarm>(
      simulation, PeerId::from_seed(1),
      p2p::Multiaddr{p2p::IpAddress::v4(1), p2p::Transport::kTcp, 4001},
      p2p::Swarm::Config{p2p::ConnManagerConfig::with_watermarks(low_water, high_water),
                         /*trim_enabled=*/true});
  for (std::size_t i = 0; i < open; ++i) {
    const PeerId remote = PeerId::from_seed(i + 2);
    if (i % 5 == 0) swarm->conn_manager().set_tag(remote, 10);
    swarm->open_connection(
        remote,
        p2p::Multiaddr{p2p::IpAddress::v4(static_cast<std::uint32_t>(i + 2)),
                       p2p::Transport::kTcp, 4001},
        p2p::Direction::kInbound);
  }
  simulation.run_until(simulation.now() +
                       swarm->conn_manager().config().grace_period +
                       ipfs::common::kSecond);
  return swarm;
}

ConnTrimNumbers bench_conn_trim(bool smoke) {
  // The watermarks are the primary workload's, in smoke mode too: the cost
  // under test scales with the table, so a shrunken table would hide it.
  const ipfs::scenario::PeriodSpec p4 = ipfs::scenario::PeriodSpec::P4();
  ConnTrimNumbers numbers;
  numbers.low_water = p4.go_low_water;
  numbers.high_water = p4.go_high_water;
  const auto high_water = static_cast<std::size_t>(p4.go_high_water);

  {
    numbers.idle_open = high_water - 1;
    numbers.idle_ticks = smoke ? 100'000 : 1'000'000;
    ipfs::sim::Simulation simulation;
    const auto swarm =
        filled_swarm(simulation, numbers.low_water, numbers.high_water, numbers.idle_open);
    std::size_t trimmed = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < numbers.idle_ticks; ++i) trimmed += swarm->trim_now();
    numbers.idle_tick_ns =
        elapsed_ms(start) * 1e6 / static_cast<double>(numbers.idle_ticks);
    if (trimmed != 0 || swarm->open_count() != numbers.idle_open) {
      std::cerr << "conn_trim: an idle tick trimmed " << trimmed << " connections\n";
      std::exit(1);
    }
  }

  // Each trimming tick needs a fresh over-full table, so the table is
  // rebuilt (untimed) for every repetition.
  numbers.trim_open = high_water + high_water / 20;
  numbers.trim_reps = smoke ? 3 : 20;
  numbers.trimmed_per_tick =
      numbers.trim_open - static_cast<std::size_t>(numbers.low_water);
  double trim_ms = 0.0;
  for (std::size_t rep = 0; rep < numbers.trim_reps; ++rep) {
    ipfs::sim::Simulation simulation;
    const auto swarm =
        filled_swarm(simulation, numbers.low_water, numbers.high_water, numbers.trim_open);
    const auto start = std::chrono::steady_clock::now();
    const std::size_t trimmed = swarm->trim_now();
    trim_ms += elapsed_ms(start);
    if (trimmed != numbers.trimmed_per_tick) {
      std::cerr << "conn_trim: a trimming tick closed " << trimmed
                << " connections, expected " << numbers.trimmed_per_tick << "\n";
      std::exit(1);
    }
  }
  numbers.trim_tick_ns = trim_ms * 1e6 / static_cast<double>(numbers.trim_reps);
  numbers.idle_share = numbers.idle_tick_ns / numbers.trim_tick_ns;
  return numbers;
}

// ---- dataset_export: Dataset::export_json and a dataset copy ---------------

struct DatasetExportNumbers {
  std::size_t peers = 0;
  std::size_t connections = 0;
  std::size_t bytes = 0;  ///< one pretty export, connections included
  std::size_t export_reps = 0;
  double export_ns = 0.0;  ///< per export_json call
  double mb_per_s = 0.0;
  std::size_t copy_reps = 0;
  double copy_ns = 0.0;  ///< per copy plus destruction of that copy
  double copy_share = 0.0;             ///< copy_ns / export_ns
  double bytes_per_peer = 0.0;         ///< live heap the built dataset holds
  double known_protocol_allocs = 0.0;  ///< per add_protocol_event of a known name
};

constexpr Field<DatasetExportNumbers> kDatasetExportFields[] = {
    {"peers", &DatasetExportNumbers::peers, kRequired},
    {"connections", &DatasetExportNumbers::connections, kRequired},
    {"bytes", &DatasetExportNumbers::bytes, kRequired},
    {"export_reps", &DatasetExportNumbers::export_reps, kRequired},
    {"export_ns", &DatasetExportNumbers::export_ns, kRequired},
    {"mb_per_s", &DatasetExportNumbers::mb_per_s, kRequired},
    {"copy_reps", &DatasetExportNumbers::copy_reps, kRequired},
    {"copy_ns", &DatasetExportNumbers::copy_ns, kRequired},
    {"copy_share", &DatasetExportNumbers::copy_share, kRequired},
    {"bytes_per_peer", &DatasetExportNumbers::bytes_per_peer, kRequired},
    {"known_protocol_allocs", &DatasetExportNumbers::known_protocol_allocs, kRequired},
};

/// Bytes the allocator has handed out and not taken back: small blocks from
/// the arenas plus mmap-served large ones (the peer table is one of those).
std::size_t live_heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// Counts and drops every byte through a 64 KiB put area, the way a file
/// stream buffers, so an export pays for its own rendering and no I/O.
class DiscardingStreambuf final : public std::streambuf {
 public:
  DiscardingStreambuf() { setp(area_, area_ + sizeof area_); }
  [[nodiscard]] std::size_t bytes() const {
    return dropped_ + static_cast<std::size_t>(pptr() - pbase());
  }

 protected:
  int overflow(int ch) override {
    dropped_ += static_cast<std::size_t>(pptr() - pbase());
    setp(area_, area_ + sizeof area_);
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  char area_[64 * 1024];
  std::size_t dropped_ = 0;
};

/// What p4_shaped_dataset's peers announce, a prefix of 2-6 per peer.
constexpr const char* kP4Protocols[] = {"/ipfs/id/1.0.0", "/ipfs/ping/1.0.0",
                                        "/ipfs/kad/1.0.0", "/ipfs/bitswap/1.2.0",
                                        "/libp2p/circuit/relay/0.1.0",
                                        "/p2p/id/delta/1.0.0"};

/// A dataset shaped like one P4 vantage: ~32k peers, each with an agent
/// history, protocol log and connecting IP, and ~58k connections.
ipfs::measure::Dataset p4_shaped_dataset() {
  namespace measure = ipfs::measure;
  namespace p2p = ipfs::p2p;
  constexpr std::size_t kPeers = 32'000;
  constexpr std::size_t kConnections = 58'000;
  constexpr ipfs::common::SimTime kSpan = 7 * ipfs::common::kDay;
  Rng rng(20211203);
  measure::Dataset dataset;
  dataset.vantage = "go-ipfs";
  dataset.measurement_end = kSpan;
  for (std::size_t i = 0; i < kPeers; ++i) {
    const auto first = static_cast<ipfs::common::SimTime>(rng.uniform_u64(kSpan));
    const measure::PeerIndex peer = dataset.intern(PeerId::from_seed(i + 1), first);
    dataset.intern(PeerId::from_seed(i + 1), first + 60 * ipfs::common::kSecond);
    dataset.add_agent(peer, first, "go-ipfs/0.11.0/67220ed");
    if (i % 7 == 0) dataset.add_agent(peer, first + 1000, "go-ipfs/0.12.0/06191df");
    const std::size_t announced = 2 + i % 5;
    for (std::size_t p = 0; p < announced; ++p) {
      dataset.add_protocol_event(peer, first, kP4Protocols[p], true);
    }
    dataset.add_connected_ip(peer, p2p::IpAddress::v4(static_cast<std::uint32_t>(i + 1)));
    dataset.record(peer).ever_dht_server = i % 3 == 0;
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    const auto opened = static_cast<ipfs::common::SimTime>(rng.uniform_u64(kSpan));
    dataset.add_connection({static_cast<measure::PeerIndex>(rng.uniform_u64(kPeers)),
                            opened, opened + static_cast<ipfs::common::SimTime>(
                                                 rng.uniform_u64(ipfs::common::kHour)),
                            c % 2 == 0 ? p2p::Direction::kInbound
                                       : p2p::Direction::kOutbound,
                            p2p::CloseReason::kRemoteClose});
  }
  return dataset;
}

/// Heap allocations per Dataset::add_protocol_event of a name the dataset
/// has already interned, into a record whose log and set have room: the
/// recorder's per-identify path once a vantage has seen every protocol.
double known_protocol_allocs() {
  constexpr std::size_t kCalls = 4096;
  ipfs::measure::Dataset dataset;
  const ipfs::measure::PeerIndex peer = dataset.intern(PeerId::from_seed(1), 0);
  for (const char* protocol : kP4Protocols) {
    dataset.add_protocol_event(peer, 0, protocol, true);
  }
  dataset.record(peer).protocol_events.reserve(kCalls + std::size(kP4Protocols));
  const std::uint64_t allocations_before = allocations;
  for (std::size_t i = 0; i < kCalls; ++i) {
    dataset.add_protocol_event(peer, static_cast<ipfs::common::SimTime>(i),
                               kP4Protocols[i % std::size(kP4Protocols)], i % 3 != 0);
  }
  return static_cast<double>(allocations - allocations_before) /
         static_cast<double>(kCalls);
}

DatasetExportNumbers bench_dataset_export(bool smoke) {
  // Full size in smoke mode too: the copy check compares against this
  // export, and a shrunken dataset would shrink the margin it needs.
  const std::size_t heap_before = live_heap_bytes();
  const ipfs::measure::Dataset dataset = p4_shaped_dataset();
  DatasetExportNumbers numbers;
  numbers.peers = dataset.peer_count();
  numbers.connections = dataset.connection_count();
  numbers.bytes_per_peer = static_cast<double>(live_heap_bytes() - heap_before) /
                           static_cast<double>(numbers.peers);
  numbers.known_protocol_allocs = known_protocol_allocs();

  numbers.export_reps = smoke ? 2 : 5;
  double export_ms = 0.0;
  for (std::size_t rep = 0; rep < numbers.export_reps; ++rep) {
    DiscardingStreambuf discard;
    std::ostream out(&discard);
    const auto start = std::chrono::steady_clock::now();
    dataset.export_json(out);
    out.flush();
    export_ms += elapsed_ms(start);
    numbers.bytes = discard.bytes();
  }
  numbers.export_ns = export_ms * 1e6 / static_cast<double>(numbers.export_reps);
  numbers.mb_per_s = static_cast<double>(numbers.bytes) / (numbers.export_ns * 1e-3);

  // What FanOutSink hands every sink but the last: a copy, later dropped.
  numbers.copy_reps = smoke ? 20 : 200;
  std::size_t seen = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < numbers.copy_reps; ++rep) {
    const ipfs::measure::Dataset copy = dataset;
    seen += copy.peer_count();
  }
  numbers.copy_ns =
      elapsed_ms(start) * 1e6 / static_cast<double>(numbers.copy_reps);
  numbers.copy_share = numbers.copy_ns / numbers.export_ns;
  if (seen != numbers.copy_reps * numbers.peers) {
    std::cerr << "dataset_export: a copy lost peers\n";
    std::exit(1);
  }
  return numbers;
}

// ---- peerstore: identify bookkeeping of one P4 vantage ---------------------

struct PeerstoreNumbers {
  std::size_t peers = 0;
  std::size_t protocols_per_identify = 0;
  double connect_ns = 0.0;         ///< per first Peerstore::connect of a peer
  double identify_ns = 0.0;        ///< per first set_agent + set_protocols
  double reidentify_ns = 0.0;      ///< per identical set_agent + set_protocols
  double reconnect_ns = 0.0;       ///< per connect of a known peer and address
  double reidentify_allocs = 0.0;  ///< heap allocations per re-identify
  double identify_list_ns = 0.0;   ///< identify_ns, by slot with an interned list
  double reidentify_list_ns = 0.0;  ///< reidentify_ns, by slot with an interned list
  double list_speedup = 0.0;       ///< reidentify_ns / reidentify_list_ns
};

constexpr Field<PeerstoreNumbers> kPeerstoreFields[] = {
    {"peers", &PeerstoreNumbers::peers, kRequired},
    {"protocols_per_identify", &PeerstoreNumbers::protocols_per_identify, kRequired},
    {"connect_ns", &PeerstoreNumbers::connect_ns, kRequired},
    {"identify_ns", &PeerstoreNumbers::identify_ns, kRequired},
    {"reidentify_ns", &PeerstoreNumbers::reidentify_ns, kRequired},
    {"reconnect_ns", &PeerstoreNumbers::reconnect_ns, kRequired},
    {"reidentify_allocs", &PeerstoreNumbers::reidentify_allocs, kRequired},
    {"identify_list_ns", &PeerstoreNumbers::identify_list_ns, kRequired},
    {"reidentify_list_ns", &PeerstoreNumbers::reidentify_list_ns, kRequired},
    {"list_speedup", &PeerstoreNumbers::list_speedup, kRequired},
};

PeerstoreNumbers bench_peerstore(bool smoke) {
  namespace p2p = ipfs::p2p;
  namespace proto = ipfs::p2p::protocols;
  // What the P4 population announces: ~11 protocols in go-ipfs's own
  // (unsorted) order, server and client variants, and prebuilt agents —
  // the campaign hands identify its population's interned names the same
  // way.
  const std::vector<std::string_view> server = {
      proto::kPing,       proto::kIdentifyPush, proto::kIdentify, proto::kDelta,
      proto::kKad,        proto::kBitswap120,   proto::kBitswap110,
      proto::kBitswap100, proto::kBitswap,      proto::kRelayV1,  proto::kX};
  std::vector<std::string_view> client = server;
  client[4] = proto::kAutonat;
  const std::string agents[] = {"go-ipfs/0.11.0/67220ed", "go-ipfs/0.10.0/64b532f",
                                "go-ipfs/0.8.0/48f94e2", "hydra-booster/0.7.4"};

  PeerstoreNumbers numbers;
  numbers.peers = 32'000;
  numbers.protocols_per_identify = server.size();
  std::vector<PeerId> pids;
  std::vector<p2p::Multiaddr> addresses;
  pids.reserve(numbers.peers);
  addresses.reserve(numbers.peers);
  for (std::size_t i = 0; i < numbers.peers; ++i) {
    pids.push_back(PeerId::from_seed(i + 1));
    const auto ip = p2p::IpAddress::v4(static_cast<std::uint32_t>(i + 1));
    addresses.push_back(p2p::Multiaddr{ip, p2p::Transport::kTcp, 4001});
  }
  const auto per_peer = [&](double ms) {
    return ms * 1e6 / static_cast<double>(numbers.peers);
  };

  p2p::Peerstore store;
  const auto connect_all = [&](ipfs::common::SimTime now) {
    for (std::size_t i = 0; i < numbers.peers; ++i) store.connect(pids[i], addresses[i], now);
  };
  auto start = std::chrono::steady_clock::now();
  connect_all(1);
  numbers.connect_ns = per_peer(elapsed_ms(start));

  const auto identify_all = [&](ipfs::common::SimTime now) {
    for (std::size_t i = 0; i < numbers.peers; ++i) {
      store.set_agent(pids[i], agents[i % 4], now);
      store.set_protocols(pids[i], i % 3 == 0 ? server : client, now);
    }
  };
  start = std::chrono::steady_clock::now();
  identify_all(2);
  numbers.identify_ns = per_peer(elapsed_ms(start));

  const std::size_t reps = smoke ? 1 : 5;
  start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < reps; ++rep) connect_all(10);
  numbers.reconnect_ns = per_peer(elapsed_ms(start)) / static_cast<double>(reps);

  // The campaign's identify: the connection hands over the remote's slot,
  // and each distinct protocol set is interned once per store.
  p2p::Peerstore listed;
  std::vector<p2p::Peerstore::Slot> slots;
  slots.reserve(numbers.peers);
  for (std::size_t i = 0; i < numbers.peers; ++i) {
    slots.push_back(listed.connect(pids[i], addresses[i], 1));
  }
  const auto server_list = listed.intern_protocols(server);
  const auto client_list = listed.intern_protocols(client);
  const auto identify_listed = [&](ipfs::common::SimTime now) {
    for (std::size_t i = 0; i < numbers.peers; ++i) {
      listed.set_agent(slots[i], agents[i % 4], now);
      listed.set_protocols(slots[i], i % 3 == 0 ? server_list : client_list, now);
    }
  };
  start = std::chrono::steady_clock::now();
  identify_listed(2);
  numbers.identify_list_ns = per_peer(elapsed_ms(start));

  // Unchanged re-identifies, by name and by slot in alternating passes, in
  // smoke mode too.  Each figure is its path's fastest pass: list_speedup
  // divides the two, a pass by slot takes under a millisecond, and a busy
  // moment of the host would otherwise land on one path only.
  constexpr int kPasses = 15;
  numbers.reidentify_ns = std::numeric_limits<double>::infinity();
  numbers.reidentify_list_ns = std::numeric_limits<double>::infinity();
  std::uint64_t reidentify_allocations = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::uint64_t allocations_before = allocations;
    start = std::chrono::steady_clock::now();
    identify_all(3 + pass);
    numbers.reidentify_ns = std::min(numbers.reidentify_ns, per_peer(elapsed_ms(start)));
    reidentify_allocations += allocations - allocations_before;
    start = std::chrono::steady_clock::now();
    identify_listed(3 + pass);
    numbers.reidentify_list_ns =
        std::min(numbers.reidentify_list_ns, per_peer(elapsed_ms(start)));
  }
  numbers.reidentify_allocs = static_cast<double>(reidentify_allocations) /
                              static_cast<double>(numbers.peers * kPasses);
  numbers.list_speedup = numbers.reidentify_ns / numbers.reidentify_list_ns;

  for (const p2p::Peerstore* checked : {&store, &listed}) {
    if (checked->size() != numbers.peers ||
        !checked->supports(pids.front(), proto::kKad) ||
        checked->find(pids.back())->agent != agents[(numbers.peers - 1) % 4]) {
      std::cerr << "peerstore: the store lost peers or identify results\n";
      std::exit(1);
    }
  }
  return numbers;
}

// ---- population: one Population build ---------------------------------------

struct PopulationNumbers {
  std::size_t peers = 0;
  std::size_t builds = 0;
  double build_ns_per_peer = 0.0;
  double bytes_per_peer = 0.0;  ///< live heap the built population holds
  std::size_t distinct_agents = 0;
  std::size_t distinct_protocol_sets = 0;
};

constexpr Field<PopulationNumbers> kPopulationFields[] = {
    {"peers", &PopulationNumbers::peers, kRequired},
    {"builds", &PopulationNumbers::builds, kRequired},
    {"build_ns_per_peer", &PopulationNumbers::build_ns_per_peer, kRequired},
    {"bytes_per_peer", &PopulationNumbers::bytes_per_peer, kRequired},
    {"distinct_agents", &PopulationNumbers::distinct_agents, kRequired},
    {"distinct_protocol_sets", &PopulationNumbers::distinct_protocol_sets, kRequired},
};

PopulationNumbers bench_population(bool smoke) {
  // Full size in smoke mode too: the per-peer bound amortises the tables
  // over this many peers.
  const auto spec = ipfs::scenario::PopulationSpec::test_scale(0.5);
  constexpr ipfs::common::SimDuration kDuration = 3 * ipfs::common::kDay;
  PopulationNumbers numbers;
  numbers.builds = smoke ? 1 : 5;
  double build_ms = 0.0;
  for (std::size_t rep = 0; rep < numbers.builds; ++rep) {
    const std::size_t heap_before = live_heap_bytes();
    const auto start = std::chrono::steady_clock::now();
    const ipfs::scenario::Population population(spec, kDuration, Rng(kCampaignSeed));
    build_ms += elapsed_ms(start);
    numbers.peers = population.peers().size();
    numbers.bytes_per_peer = static_cast<double>(live_heap_bytes() - heap_before) /
                             static_cast<double>(numbers.peers);
    numbers.distinct_agents = population.agent_count();
    numbers.distinct_protocol_sets = population.protocol_set_count();
  }
  numbers.build_ns_per_peer = build_ms * 1e6 / static_cast<double>(numbers.builds) /
                              static_cast<double>(numbers.peers);
  return numbers;
}

// ---- content_fabric: Bitswap fetches on a trimming content fabric ----------

struct ContentFabricNumbers {
  double scale = 0.0;
  std::size_t runs = 0;
  std::size_t fetches = 0;        ///< fetch samples one campaign publishes
  double ns_per_fetch = 0.0;      ///< campaign run time per fetch
  double allocs_per_fetch = 0.0;  ///< heap allocations of one run per fetch
};

constexpr Field<ContentFabricNumbers> kContentFabricFields[] = {
    {"scale", &ContentFabricNumbers::scale, kRequired},
    {"runs", &ContentFabricNumbers::runs, kRequired},
    {"fetches", &ContentFabricNumbers::fetches, kRequired},
    {"ns_per_fetch", &ContentFabricNumbers::ns_per_fetch, kRequired},
    {"allocs_per_fetch", &ContentFabricNumbers::allocs_per_fetch, kRequired},
};

/// content-baseline at scale 0.05, where the server vantage's Bitswap swarm
/// passes its 900-connection HighWater, so dials, wants, blocks, trims and
/// their mirrors all run.  Same size under --smoke: the guard compares the
/// allocation count, which is exact, with the committed one.
ContentFabricNumbers bench_content_fabric(bool smoke) {
  struct FetchCounter final : ipfs::measure::MeasurementSink {
    std::size_t fetches = 0;
    void on_fetch(const ipfs::measure::FetchSample&) override { ++fetches; }
  };
  ipfs::scenario::ScenarioSpec spec = *ipfs::scenario::ScenarioSpec::builtin(
      "content-baseline");
  ContentFabricNumbers numbers;
  numbers.scale = 0.05;
  spec.population.scale = numbers.scale;
  const ipfs::scenario::CampaignConfig config = spec.to_campaign_config();
  numbers.runs = smoke ? 1 : 5;
  double run_ms = 0.0;
  std::uint64_t run_allocations = 0;
  for (std::size_t rep = 0; rep < numbers.runs; ++rep) {
    ipfs::scenario::CampaignEngine engine = make_engine(config);
    FetchCounter counter;
    const std::uint64_t allocations_before = allocations;
    const auto start = std::chrono::steady_clock::now();
    engine.run(counter);
    run_ms += elapsed_ms(start);
    run_allocations = allocations - allocations_before;
    numbers.fetches = counter.fetches;
  }
  if (numbers.fetches == 0 || run_allocations == 0) {
    std::cerr << "content_fabric: the campaign fetched or allocated nothing "
                 "on this thread\n";
    std::exit(1);
  }
  const auto fetches = static_cast<double>(numbers.fetches);
  numbers.ns_per_fetch = run_ms * 1e6 / static_cast<double>(numbers.runs) / fetches;
  numbers.allocs_per_fetch = static_cast<double>(run_allocations) / fetches;
  return numbers;
}

// ---- the document ------------------------------------------------------------

/// One run of the suite, as BENCH_core.json holds it.
struct Suite {
  std::string suite = "core";
  bool smoke = false;
  LookupNumbers lookup;
  EventQueueNumbers event_queue;
  ConditionNumbers conditions;
  ChurnModelNumbers churn_model;
  ContentModelNumbers content_model;
  CampaignNumbers campaign;
  ShardedCampaignNumbers sharded_campaign;
  PhaseProgramNumbers phase_program;
  ConnTrimNumbers conn_trim;
  DatasetExportNumbers dataset_export;
  PeerstoreNumbers peerstore;
  PopulationNumbers population;
  ContentFabricNumbers content_fabric;
};

constexpr Field<Suite> kSuiteFields[] = {
    {"suite", &Suite::suite, kRequired},
    {"smoke", &Suite::smoke, kRequired},
    {"lookup", sub_object<&Suite::lookup, kLookupFields>(), kRequired},
    {"event_queue", sub_object<&Suite::event_queue, kEventQueueFields>(), kRequired},
    {"conditions", sub_object<&Suite::conditions, kConditionFields>(), kRequired},
    {"churn_model", sub_object<&Suite::churn_model, kChurnModelFields>(), kRequired},
    {"content_model", sub_object<&Suite::content_model, kContentModelFields>(),
     kRequired},
    {"campaign", sub_object<&Suite::campaign, kCampaignFields>(), kRequired},
    {"sharded_campaign",
     sub_object<&Suite::sharded_campaign, kShardedCampaignFields>(), kRequired},
    {"phase_program", sub_object<&Suite::phase_program, kPhaseProgramFields>(),
     kRequired},
    {"conn_trim", sub_object<&Suite::conn_trim, kConnTrimFields>(), kRequired},
    {"dataset_export", sub_object<&Suite::dataset_export, kDatasetExportFields>(),
     kRequired},
    {"peerstore", sub_object<&Suite::peerstore, kPeerstoreFields>(), kRequired},
    {"population", sub_object<&Suite::population, kPopulationFields>(), kRequired},
    {"content_fabric", sub_object<&Suite::content_fabric, kContentFabricFields>(),
     kRequired},
};

/// Runs the sections, each into its member of `suite`, and prints each
/// one's fields as one line of JSON.
struct SectionRunner {
  Suite& suite;
  bool smoke = false;
  std::size_t done = 0;

  template <auto kMember, const auto& kFields>
  void run(std::string_view heading, const auto& bench) {
    // The document's first two fields are "suite" and "smoke".
    std::cout << "[" << ++done << "/" << std::size(kSuiteFields) - 2 << "] "
              << heading << " ...\n";
    suite.*kMember = bench(smoke);
    std::cout << "      ";
    JsonWriter line(std::cout);
    write_schema<kFields>(line, suite.*kMember);
    std::cout << "\n";
  }
};

// ---- baseline guardrail -----------------------------------------------------

/// How a guard's limit follows from its bound.
enum class Limit {
  kAtLeastCommittedOver,  ///< this run's value >= committed / bound
  kAtMostCommittedTimes,  ///< this run's value <= committed * bound
  kAtMost,                ///< this run's value <= bound
};

/// One check of this run against the committed baseline.
struct Guard {
  std::string_view label;  ///< the section.field it reads
  double (*field)(const Suite&);
  Limit kind;
  double bound;
  std::string_view reason;  ///< what a failure means, and where DESIGN.md says so
};

/// What `--check-baseline` checks.  The ratio guards divide two paths
/// timed in this process on this host, so they hold where absolute times
/// swing with the host's load; the allocation counts and heap bytes do not
/// depend on the host at all.  The event-queue ratio is measured at the
/// committed event count, because the ladder queue's lead over the heap
/// grows with the queue's depth.
constexpr Guard kGuards[] = {
    {"event_queue.speedup_vs_heap",
     [](const Suite& run) { return run.event_queue.speedup_vs_heap; },
     Limit::kAtLeastCommittedOver, 1.25,
     "event_queue's speedup over the binary heap fell more than 25% below the "
     "committed one (DESIGN.md §12); if the change is intentional, regenerate "
     "BENCH_core.json (bench/README.md)"},
    {"conn_trim.idle_share", [](const Suite& run) { return run.conn_trim.idle_share; },
     Limit::kAtMost, 0.01,
     "a conn_trim idle tick costs more than 1% of a trimming tick; "
     "Swarm::trim_now must return before snapshotting the table at or below "
     "high water (DESIGN.md §7)"},
    {"dataset_export.copy_share",
     [](const Suite& run) { return run.dataset_export.copy_share; }, Limit::kAtMost,
     0.01,
     "a dataset copy costs more than 1% of its export; copies of a "
     "measure::Dataset must share its storage (DESIGN.md §4)"},
    {"dataset_export.known_protocol_allocs",
     [](const Suite& run) { return run.dataset_export.known_protocol_allocs; },
     Limit::kAtMost, 0.0,
     "Dataset::add_protocol_event allocates with a name the dataset already "
     "interned; a known name must be looked up by string_view and stored as "
     "an id (DESIGN.md §4)"},
    {"peerstore.reidentify_allocs",
     [](const Suite& run) { return run.peerstore.reidentify_allocs; },
     Limit::kAtMost, 0.0,
     "an unchanged peerstore set_agent + set_protocols allocates; an unchanged "
     "identify must compare interned ids without allocating (DESIGN.md §7)"},
    {"peerstore.list_speedup", [](const Suite& run) { return run.peerstore.list_speedup; },
     Limit::kAtLeastCommittedOver, 1.25,
     "re-identifying by slot with a pre-interned protocol list gains more "
     "than 25% less over the by-name path than committed; the slot path must "
     "skip the PeerId lookup and the name interning (DESIGN.md §7)"},
    // A record is ~120 bytes; per-peer strings would cost ~1 KB.
    {"population.bytes_per_peer",
     [](const Suite& run) { return run.population.bytes_per_peer; }, Limit::kAtMost,
     160.0,
     "a built population holds too many heap bytes per peer; a RemotePeer "
     "must stay a fixed-size record whose agent and protocol set are ids into "
     "the population's tables (DESIGN.md §7)"},
    {"content_fabric.allocs_per_fetch",
     [](const Suite& run) { return run.content_fabric.allocs_per_fetch; },
     Limit::kAtMostCommittedTimes, 1.10,
     "a content campaign allocates more than 10% more per fetch than "
     "committed; a fetching remote is a bare Bitswap endpoint on the content "
     "fabric, with no swarm, peerstore or conn manager (DESIGN.md §11); if the "
     "change is intentional, regenerate BENCH_core.json (bench/README.md)"},
};

/// The committed baseline, read by the document's own schema, or nullopt
/// after printing why it is unusable.
std::optional<Suite> read_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "check-baseline: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto parsed = JsonValue::parse(text);
  if (!parsed.has_value()) {
    std::cerr << "check-baseline: " << path << ": " << parsed.error() << "\n";
    return std::nullopt;
  }
  Suite baseline;
  if (auto error = read_document<Suite>(*parsed, "document", kSuiteFields, baseline)) {
    std::cerr << "check-baseline: " << path << ": " << *error
              << "; regenerate BENCH_core.json (bench/README.md)\n";
    return std::nullopt;
  }
  if (baseline.event_queue.events == 0) {
    std::cerr << "check-baseline: " << path
              << " has no positive event_queue.events\n";
    return std::nullopt;
  }
  return baseline;
}

/// Prints every guard's value and limit; false after printing why each
/// failed guard failed.
bool check_baseline(const Suite& run, const Suite& committed) {
  std::cout << "\n";
  bool ok = true;
  for (const Guard& guard : kGuards) {
    const double value = guard.field(run);
    const double was = guard.field(committed);
    const bool at_least = guard.kind == Limit::kAtLeastCommittedOver;
    const double limit = at_least                                      ? was / guard.bound
                         : guard.kind == Limit::kAtMostCommittedTimes ? was * guard.bound
                                                                      : guard.bound;
    std::cout << "check-baseline: " << guard.label << " " << value
              << (at_least ? " (at least " : " (at most ") << limit;
    if (guard.kind != Limit::kAtMost) std::cout << "; committed " << was;
    std::cout << ")\n";
    if (!(at_least ? value >= limit : value <= limit)) {
      std::cerr << "check-baseline: FAIL — " << guard.label << " is " << value
                << ", limit " << limit << ": " << guard.reason << "\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::optional<std::string> out_arg;
  std::optional<std::string> baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    bool repeated = false;
    if (flag == "--smoke") {
      repeated = std::exchange(smoke, true);
    } else if ((flag == "--out" || flag == "--check-baseline") && i + 1 < argc) {
      std::optional<std::string>& value = flag == "--out" ? out_arg : baseline_path;
      repeated = value.has_value();
      value = argv[++i];
    } else {
      std::cerr << "usage: perf_suite [--smoke] [--out FILE] "
                   "[--check-baseline FILE]\n";
      return 2;
    }
    if (repeated) {
      std::cerr << "perf_suite: " << flag << ": given more than once\n";
      return 2;
    }
  }
  const std::string out_path = out_arg.value_or("BENCH_core.json");
  // The baseline is read, schema and all, before any section runs: writing
  // --out first would let a run that overwrites the baseline check itself,
  // and a stale baseline fails before the sections' seconds are spent.
  std::optional<Suite> committed;
  if (baseline_path) {
    std::error_code error;
    if (std::filesystem::equivalent(out_path, *baseline_path, error)) {
      std::cerr << "perf_suite: --out " << out_path << " is the --check-baseline "
                << "file; write the run elsewhere (e.g. --out /tmp/BENCH.json)\n";
      return 2;
    }
    committed = read_baseline(*baseline_path);
    if (!committed) return 1;
  }

  std::cout << "\n" << std::string(78, '#') << "\n"
            << "# Core performance suite\n"
            << "# perf trajectory (BENCH_core.json), not a paper figure\n"
            << "# campaign scale=" << campaign_scale(smoke)
            << " seed=" << kCampaignSeed << "\n"
            << std::string(78, '#') << "\n";

  Suite suite;
  suite.smoke = smoke;
  SectionRunner runner{suite, smoke};
  runner.run<&Suite::lookup, kLookupFields>("lookup: RoutingTable::add and ::closest",
                                            bench_lookup);
  // The event-queue guard compares speedups at the baseline's own count.
  const std::size_t events =
      committed ? committed->event_queue.events : smoke ? 50'000 : 2'000'000;
  runner.run<&Suite::event_queue, kEventQueueFields>(
      "event queue: schedule + drain", [events](bool) { return bench_event_queue(events); });
  runner.run<&Suite::conditions, kConditionFields>(
      "conditions: ConditionModel sampling", bench_conditions);
  runner.run<&Suite::churn_model, kChurnModelFields>("churn_model: ChurnModel sampling",
                                                     bench_churn_model);
  runner.run<&Suite::content_model, kContentModelFields>(
      "content_model: ContentModel sampling", bench_content_model);
  runner.run<&Suite::campaign, kCampaignFields>("campaign: sequential vs parallel sweep",
                                                bench_campaign);
  runner.run<&Suite::sharded_campaign, kShardedCampaignFields>(
      "sharded_campaign: unsharded vs sharded engine", bench_sharded_campaign);
  runner.run<&Suite::phase_program, kPhaseProgramFields>(
      "phase_program: rates_at lookups + campaign overhead", bench_phase_program);
  runner.run<&Suite::conn_trim, kConnTrimFields>(
      "conn_trim: Swarm::trim_now at P4 watermarks", bench_conn_trim);
  runner.run<&Suite::dataset_export, kDatasetExportFields>(
      "dataset_export: Dataset::export_json and a copy", bench_dataset_export);
  runner.run<&Suite::peerstore, kPeerstoreFields>(
      "peerstore: connect, identify, re-identify", bench_peerstore);
  runner.run<&Suite::population, kPopulationFields>("population: Population build",
                                                    bench_population);
  runner.run<&Suite::content_fabric, kContentFabricFields>(
      "content_fabric: a trimming content campaign", bench_content_fabric);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  JsonWriter json(out, /*pretty=*/true);
  write_record<Suite>(json, kSuiteFields, suite);
  out << "\n";
  std::cout << "\nwrote " << out_path << "\n";

  if (committed && !check_baseline(suite, *committed)) return 1;
  return 0;
}
