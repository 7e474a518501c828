// Core performance suite — the recorded perf trajectory of this repo.
//
// Unlike `ipfs_sim reproduce` (which reproduces the paper's numbers), this
// binary times the hot paths the simulator lives on and emits the
// results as machine-readable JSON (`BENCH_core.json`):
//
//   lookup       RoutingTable::closest throughput, new bucket-walk
//                selection vs. the old sort-everything baseline
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
// Usage:  perf_suite [--smoke] [--out FILE] [--check-baseline FILE]
//   --smoke           tiny sizes for CI (seconds, no timing assertions)
//   --out             output path, default ./BENCH_core.json; naming the
//                     --check-baseline file exits 2 before anything runs
//   --check-baseline  compare event_queue.speedup_vs_heap, measured at the
//                     committed event count, against a committed
//                     BENCH_core.json; exit 1 when it falls more than 25%
//                     (the scheduler guardrail — see DESIGN.md §12), when this
//                     run's conn_trim idle tick costs more than 1% of its
//                     trimming tick (the table snapshot came back — see
//                     DESIGN.md §7), when this run's dataset copy costs
//                     more than 1% of its export (copies stopped sharing
//                     storage — DESIGN.md §4), when the dataset allocates
//                     to record an already-interned protocol (DESIGN.md
//                     §4), when an unchanged peerstore re-identify
//                     allocates (DESIGN.md §7), when re-identifying by
//                     slot with a pre-interned list gains more than 25%
//                     less over the by-name path than committed (DESIGN.md
//                     §7), when a built population
//                     holds more than 160 heap bytes per peer (DESIGN.md
//                     §7), when a content campaign allocates more than
//                     10% more per fetch than committed (DESIGN.md §11),
//                     or when the baseline lacks a section the suite emits
// The campaign sections run P4 at scale 0.05 (0.005 with --smoke) on seed
// 20211203 (see bench/README.md).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
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
#include <thread>
#include <vector>

#include "common/json.hpp"
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
  double closest_ns = 0.0;   ///< per query, bucket-walk selection
  double baseline_ns = 0.0;  ///< per query, all_peers() + full sort
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
  // the deep ones — together a realistically shaped table.
  const int inserts = smoke ? 5'000 : 200'000;
  for (int i = 0; i < inserts; ++i) {
    const PeerId peer =
        rng.bernoulli(0.2)
            ? PeerId::with_prefix(self.prefix64(),
                                  1 + static_cast<unsigned>(rng.uniform_u64(40)), rng)
            : PeerId::random(rng);
    table.add(peer, 0);
  }

  LookupNumbers numbers;
  numbers.table_size = table.size();
  numbers.queries = smoke ? 200 : 20'000;
  std::vector<PeerId> targets;
  targets.reserve(numbers.queries);
  for (std::size_t i = 0; i < numbers.queries; ++i) {
    targets.push_back(PeerId::random(rng));
  }

  std::size_t checksum = 0;
  auto start = std::chrono::steady_clock::now();
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
  double hold_ns_per_event = 0.0;  ///< steady state: each event reschedules
  double heap_ns_per_event = 0.0;  ///< ReferenceHeapSimulation, bulk workload
  double speedup_vs_heap = 0.0;
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

struct CampaignNumbers {
  std::size_t trials = 0;
  double scale = 0.0;
  unsigned workers = 0;
  double sequential_ms = 0.0;
  double parallel_ms = 0.0;
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
  return numbers;
}

// ---- sharded_campaign: unsharded vs. intra-trial-sharded engine -------------

struct ShardedCampaignNumbers {
  double scale = 0.0;
  unsigned shards = 0;
  unsigned workers = 0;
  double sequential_ms = 0.0;
  double sharded_ms = 0.0;
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
  return numbers;
}

// ---- phase_program: rates_at lookups + campaign modulation overhead ---------

struct PhaseProgramNumbers {
  std::size_t samples = 0;
  double rates_ns = 0.0;   ///< per rates_at lookup, 4-phase mixed program
  double plain_ms = 0.0;   ///< churn+content campaign, no phases
  double phased_ms = 0.0;  ///< same campaign with a modulating program
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
  double bytes_per_peer = 0.0;         ///< live heap the built dataset holds
  double known_protocol_allocs = 0.0;  ///< per add_protocol_event of a known name
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

/// The population check_baseline bounds: at most this many heap bytes per
/// peer.  A record is ~120 bytes; per-peer strings would cost ~1 KB.
constexpr double kPopulationBytesPerPeer = 160.0;

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

/// The content_fabric check_baseline bound: at most this factor above the
/// committed allocs_per_fetch.
constexpr double kFabricAllocGrowth = 1.10;

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

// ---- baseline guardrail -----------------------------------------------------

/// The committed baseline, or nullopt after printing why it is unusable.
std::optional<ipfs::common::JsonValue> read_baseline(const std::string& baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::cerr << "check-baseline: cannot open " << baseline_path << "\n";
    return std::nullopt;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto parsed = ipfs::common::JsonValue::parse(text);
  if (!parsed.has_value()) {
    std::cerr << "check-baseline: " << baseline_path << ": " << parsed.error()
              << "\n";
    return std::nullopt;
  }
  return std::move(*parsed);
}

/// The baseline's event_queue.events, or nullopt after printing why not.
std::optional<std::size_t> baseline_event_count(const std::string& baseline_path,
                                                const ipfs::common::JsonValue& baseline) {
  const ipfs::common::JsonValue* section = baseline.find("event_queue");
  const ipfs::common::JsonValue* events =
      section != nullptr ? section->find("events") : nullptr;
  const auto count = events != nullptr ? events->as_uint64() : std::nullopt;
  if (!count || *count == 0) {
    std::cerr << "check-baseline: " << baseline_path
              << " has no positive event_queue.events\n";
    return std::nullopt;
  }
  return static_cast<std::size_t>(*count);
}

/// Compares a fresh event_queue measurement against the committed
/// BENCH_core.json and checks this run's conn_trim and dataset_export
/// ratios, its dataset and peerstore allocation counts and its population's
/// heap per peer.  Returns false (after printing why) when the scheduler's
/// speedup over the binary heap fell more than 25% — the CI guardrail for
/// the ladder-queue engine —
/// when an idle trim tick costs more than 1% of a trimming one, when a
/// dataset copy costs more than 1% of an export, when recording a known
/// protocol or an unchanged re-identify allocates, when re-identifying
/// by slot with a pre-interned list gains more than 25% less over the
/// by-name path than committed, when a population holds more than 160
/// bytes per peer, or when a content campaign allocates more than 10% more
/// per fetch than the committed run.
/// The ratio checks compare two figures of the same run, and the
/// allocation counts and heap bytes do not depend on the host; they fail
/// if trim_now snapshots the table before its high-water check, if copying
/// a Dataset duplicates its storage, if the Dataset stores a string per
/// protocol event again, if Peerstore::set_protocols builds a set per
/// identify, if the slot path looks peers or names up again, if a
/// RemotePeer owns strings again, or if a fetching remote
/// builds per-peer machinery on the content fabric again.
bool check_baseline(const std::string& baseline_path,
                    const ipfs::common::JsonValue& baseline,
                    const EventQueueNumbers& fresh, const ConnTrimNumbers& trim,
                    const DatasetExportNumbers& dataset,
                    const PeerstoreNumbers& peerstore,
                    const PopulationNumbers& population,
                    const ContentFabricNumbers& fabric) {
  const ipfs::common::JsonValue* section = baseline.find("event_queue");
  const ipfs::common::JsonValue* speedup =
      section != nullptr ? section->find("speedup_vs_heap") : nullptr;
  if (speedup == nullptr || !speedup->is_number()) {
    std::cerr << "check-baseline: " << baseline_path
              << " has no event_queue.speedup_vs_heap\n";
    return false;
  }
  // Field-coverage guard: a committed baseline must carry every section
  // the suite emits, or a regeneration quietly dropped one.
  struct RequiredSection {
    const char* name;
    std::vector<const char*> fields;
  };
  const RequiredSection required_sections[] = {
      {"sharded_campaign", {"sharded_ms", "sequential_ms", "shards"}},
      {"phase_program",
       {"rates_ns_per_lookup", "plain_campaign_ms", "phased_campaign_ms"}},
      {"conn_trim", {"idle_tick_ns", "trim_tick_ns"}},
      {"dataset_export",
       {"export_ns", "copy_ns", "bytes_per_peer", "known_protocol_allocs"}},
      {"peerstore",
       {"connect_ns", "identify_ns", "reidentify_ns", "reconnect_ns",
        "reidentify_allocs", "identify_list_ns", "reidentify_list_ns",
        "list_speedup"}},
      {"population",
       {"bytes_per_peer", "build_ns_per_peer", "distinct_agents",
        "distinct_protocol_sets"}},
      {"content_fabric", {"fetches", "ns_per_fetch", "allocs_per_fetch"}},
  };
  for (const RequiredSection& required : required_sections) {
    const ipfs::common::JsonValue* found = baseline.find(required.name);
    const bool complete =
        found != nullptr &&
        std::ranges::all_of(required.fields, [found](const char* field) {
          return found->find(field) != nullptr;
        });
    if (!complete) {
      std::cerr << "check-baseline: " << baseline_path << " predates the "
                << required.name << " section — regenerate "
                << "BENCH_core.json (bench/README.md)\n";
      return false;
    }
  }

  bool ok = true;
  // Both engines run in this process on this host, so their ratio holds
  // where absolute ns/event swing with the host's load.
  const double committed = speedup->as_double();
  constexpr double kTolerance = 1.25;
  std::cout << "\ncheck-baseline: event_queue " << fresh.speedup_vs_heap
            << "x the binary heap at " << fresh.events << " events vs committed "
            << committed << "x (limit " << committed / kTolerance << "x)\n";
  if (fresh.speedup_vs_heap < committed / kTolerance) {
    std::cerr << "check-baseline: FAIL — event_queue's speedup over the binary "
              << "heap fell more than 25% (got " << fresh.speedup_vs_heap
              << "x, committed " << committed << "x); if the change is "
              << "intentional, regenerate BENCH_core.json (bench/README.md)\n";
    ok = false;
  }

  constexpr double kIdleShare = 0.01;
  std::cout << "check-baseline: conn_trim idle tick " << trim.idle_tick_ns
            << " ns vs trimming tick " << trim.trim_tick_ns << " ns (limit "
            << trim.trim_tick_ns * kIdleShare << ")\n";
  if (trim.idle_tick_ns > trim.trim_tick_ns * kIdleShare) {
    std::cerr << "check-baseline: FAIL — conn_trim idle tick costs more than 1% "
              << "of a trimming tick (got " << trim.idle_tick_ns << " vs "
              << trim.trim_tick_ns << " ns); Swarm::trim_now must return "
              << "before snapshotting the table at or below high water "
              << "(DESIGN.md §7)\n";
    ok = false;
  }

  constexpr double kCopyShare = 0.01;
  std::cout << "check-baseline: dataset copy " << dataset.copy_ns
            << " ns vs export " << dataset.export_ns << " ns (limit "
            << dataset.export_ns * kCopyShare << ")\n";
  if (dataset.copy_ns > dataset.export_ns * kCopyShare) {
    std::cerr << "check-baseline: FAIL — a dataset copy costs more than 1% of "
              << "its export (got " << dataset.copy_ns << " vs "
              << dataset.export_ns << " ns); copies of a measure::Dataset "
              << "must share its storage (DESIGN.md §4)\n";
    ok = false;
  }

  std::cout << "check-baseline: dataset records a known protocol with "
            << dataset.known_protocol_allocs << " allocations per call (limit 0)\n";
  if (dataset.known_protocol_allocs > 0) {
    std::cerr << "check-baseline: FAIL — Dataset::add_protocol_event allocates ("
              << dataset.known_protocol_allocs << " heap allocations per call "
              << "with a name the dataset already interned); a known name must "
              << "be looked up by string_view and stored as an id (DESIGN.md "
              << "§4)\n";
    ok = false;
  }

  std::cout << "check-baseline: peerstore re-identify allocates "
            << peerstore.reidentify_allocs << " times per call (limit 0)\n";
  if (peerstore.reidentify_allocs > 0) {
    std::cerr << "check-baseline: FAIL — peerstore re-identify allocates ("
              << peerstore.reidentify_allocs << " heap allocations per "
              << "unchanged set_agent + set_protocols); an unchanged identify "
              << "must compare interned ids without allocating (DESIGN.md §7)\n";
    ok = false;
  }

  // Both paths run in this process on this host, so their ratio holds
  // where absolute ns swing with the host's load.
  const ipfs::common::JsonValue* list_speedup =
      baseline.find("peerstore")->find("list_speedup");
  if (!list_speedup->is_number()) {
    std::cerr << "check-baseline: " << baseline_path
              << " has no numeric peerstore.list_speedup\n";
    return false;
  }
  const double committed_list = list_speedup->as_double();
  std::cout << "check-baseline: peerstore re-identify by slot with an interned list "
            << peerstore.list_speedup << "x faster than by name vs committed "
            << committed_list << "x (limit " << committed_list / kTolerance << "x)\n";
  if (peerstore.list_speedup < committed_list / kTolerance) {
    std::cerr << "check-baseline: FAIL — re-identifying by slot with a "
              << "pre-interned protocol list gains more than 25% less over the "
              << "by-name path than committed (got " << peerstore.list_speedup
              << "x, committed " << committed_list << "x); the slot path must "
              << "skip the PeerId lookup and the name interning (DESIGN.md §7)\n";
    ok = false;
  }

  std::cout << "check-baseline: population holds " << population.bytes_per_peer
            << " heap bytes per peer (limit " << kPopulationBytesPerPeer << ")\n";
  if (population.bytes_per_peer > kPopulationBytesPerPeer) {
    std::cerr << "check-baseline: FAIL — a built population holds "
              << population.bytes_per_peer << " heap bytes per peer (limit "
              << kPopulationBytesPerPeer << "); a RemotePeer must stay a "
              << "fixed-size record whose agent and protocol set are ids into "
              << "the population's tables (DESIGN.md §7)\n";
    ok = false;
  }

  const ipfs::common::JsonValue* allocs =
      baseline.find("content_fabric")->find("allocs_per_fetch");
  if (!allocs->is_number()) {
    std::cerr << "check-baseline: " << baseline_path
              << " has no numeric content_fabric.allocs_per_fetch\n";
    return false;
  }
  const double committed_allocs = allocs->as_double();
  std::cout << "check-baseline: content_fabric allocates " << fabric.allocs_per_fetch
            << " times per fetch vs committed " << committed_allocs << " (limit "
            << committed_allocs * kFabricAllocGrowth << ")\n";
  if (fabric.allocs_per_fetch > committed_allocs * kFabricAllocGrowth) {
    std::cerr << "check-baseline: FAIL — a content campaign allocates "
              << fabric.allocs_per_fetch << " times per fetch, more than 10% "
              << "above the committed " << committed_allocs << "; a fetching "
              << "remote is a bare Bitswap endpoint on the content fabric, with "
              << "no swarm, peerstore or conn manager (DESIGN.md §11); if the "
              << "change is intentional, regenerate BENCH_core.json "
              << "(bench/README.md)\n";
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_core.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check-baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::cerr << "usage: perf_suite [--smoke] [--out FILE] "
                   "[--check-baseline FILE]\n";
      return 2;
    }
  }
  // The baseline is read once, before any section runs: writing --out
  // first would let a run that overwrites the baseline check itself.
  std::optional<ipfs::common::JsonValue> baseline;
  if (!baseline_path.empty()) {
    std::error_code error;
    if (std::filesystem::equivalent(out_path, baseline_path, error)) {
      std::cerr << "perf_suite: --out " << out_path << " is the --check-baseline "
                << "file; write the run elsewhere (e.g. --out /tmp/BENCH.json)\n";
      return 2;
    }
    baseline = read_baseline(baseline_path);
    if (!baseline) return 1;
  }

  std::cout << "\n" << std::string(78, '#') << "\n"
            << "# Core performance suite\n"
            << "# perf trajectory (BENCH_core.json), not a paper figure\n"
            << "# campaign scale=" << campaign_scale(smoke)
            << " seed=" << kCampaignSeed << "\n"
            << std::string(78, '#') << "\n";

  std::cout << "[1/13] lookup: RoutingTable::closest ...\n";
  const LookupNumbers lookup = bench_lookup(smoke);
  std::cout << "      table=" << lookup.table_size << " peers, "
            << lookup.closest_ns << " ns/query (sort-everything baseline: "
            << lookup.baseline_ns << " ns/query, "
            << lookup.baseline_ns / lookup.closest_ns << "x)\n";

  std::cout << "[2/13] event queue: schedule + drain ...\n";
  // The guard compares speedups at the baseline's own event count: the
  // ladder queue's lead over the heap grows with the queue's depth.
  std::size_t event_count = smoke ? 50'000 : 2'000'000;
  if (baseline) {
    const auto committed = baseline_event_count(baseline_path, *baseline);
    if (!committed) return 1;
    event_count = *committed;
  }
  const EventQueueNumbers events = bench_event_queue(event_count);
  std::cout << "      " << events.events << " events, " << events.ns_per_event
            << " ns/event bulk (" << 1e9 / events.ns_per_event
            << " events/s), " << events.hold_ns_per_event
            << " ns/event hold; binary-heap baseline "
            << events.heap_ns_per_event << " ns/event ("
            << events.speedup_vs_heap << "x)\n";

  std::cout << "[3/13] conditions: ConditionModel sampling ...\n";
  const ConditionNumbers conditions = bench_conditions(smoke);
  std::cout << "      " << conditions.samples << " samples, "
            << conditions.one_way_ns << " ns/one_way, " << conditions.gate_ns
            << " ns/dial_allowed\n";

  std::cout << "[4/13] churn_model: ChurnModel sampling ...\n";
  const ChurnModelNumbers churn = bench_churn_model(smoke);
  std::cout << "      " << churn.samples << " samples, " << churn.session_ns
            << " ns/session, " << churn.gap_ns << " ns/gap\n";

  std::cout << "[5/13] content_model: ContentModel sampling ...\n";
  const ContentModelNumbers content = bench_content_model(smoke);
  std::cout << "      " << content.samples << " samples, " << content.publish_ns
            << " ns/publish-chain, " << content.fetch_ns << " ns/fetch-chain\n";

  std::cout << "[6/13] campaign: sequential vs parallel sweep ...\n";
  const CampaignNumbers campaign = bench_campaign(smoke);
  std::cout << "      " << campaign.trials << " trials @ scale "
            << campaign.scale << ": sequential " << campaign.sequential_ms
            << " ms, parallel " << campaign.parallel_ms << " ms ("
            << campaign.workers << " workers, "
            << campaign.sequential_ms / campaign.parallel_ms << "x)\n";

  std::cout << "[7/13] sharded_campaign: unsharded vs sharded engine ...\n";
  const ShardedCampaignNumbers sharded = bench_sharded_campaign(smoke);
  std::cout << "      scale " << sharded.scale << ": sequential "
            << sharded.sequential_ms << " ms, sharded " << sharded.sharded_ms
            << " ms (" << sharded.shards << " shards, " << sharded.workers
            << " workers, exports byte-identical)\n";

  std::cout << "[8/13] phase_program: rates_at lookups + campaign overhead ...\n";
  const PhaseProgramNumbers phases = bench_phase_program(smoke);
  std::cout << "      " << phases.samples << " lookups, " << phases.rates_ns
            << " ns/rates_at; campaign plain " << phases.plain_ms
            << " ms vs phased " << phases.phased_ms << " ms ("
            << phases.phased_ms / phases.plain_ms << "x)\n";

  std::cout << "[9/13] conn_trim: Swarm::trim_now at P4 watermarks ...\n";
  const ConnTrimNumbers trim = bench_conn_trim(smoke);
  std::cout << "      " << trim.low_water << "/" << trim.high_water
            << " watermarks: idle tick (" << trim.idle_open << " open) "
            << trim.idle_tick_ns << " ns, trimming tick (" << trim.trim_open
            << " open, " << trim.trimmed_per_tick << " closed) "
            << trim.trim_tick_ns << " ns\n";

  std::cout << "[10/13] dataset_export: Dataset::export_json and a copy ...\n";
  const DatasetExportNumbers dataset = bench_dataset_export(smoke);
  std::cout << "      " << dataset.peers << " peers, " << dataset.connections
            << " connections: export " << dataset.export_ns << " ns ("
            << dataset.bytes << " bytes, " << dataset.mb_per_s << " MB/s), copy "
            << dataset.copy_ns << " ns, " << dataset.bytes_per_peer
            << " heap bytes/peer, " << dataset.known_protocol_allocs
            << " allocations per known protocol\n";

  std::cout << "[11/13] peerstore: connect, identify, re-identify ...\n";
  const PeerstoreNumbers peerstore = bench_peerstore(smoke);
  std::cout << "      " << peerstore.peers << " peers x "
            << peerstore.protocols_per_identify << " protocols: connect "
            << peerstore.connect_ns << " ns, identify " << peerstore.identify_ns
            << " ns, re-identify " << peerstore.reidentify_ns << " ns ("
            << peerstore.reidentify_allocs << " allocations), reconnect "
            << peerstore.reconnect_ns << " ns; by slot with interned lists: "
            << "identify " << peerstore.identify_list_ns << " ns, re-identify "
            << peerstore.reidentify_list_ns << " ns (" << peerstore.list_speedup
            << "x)\n";

  std::cout << "[12/13] population: Population build ...\n";
  const PopulationNumbers population = bench_population(smoke);
  std::cout << "      " << population.peers << " peers: build "
            << population.build_ns_per_peer << " ns/peer, "
            << population.bytes_per_peer << " heap bytes/peer, "
            << population.distinct_agents << " agents, "
            << population.distinct_protocol_sets << " protocol sets\n";

  std::cout << "[13/13] content_fabric: a trimming content campaign ...\n";
  const ContentFabricNumbers fabric = bench_content_fabric(smoke);
  std::cout << "      scale " << fabric.scale << ": " << fabric.fetches
            << " fetches, " << fabric.ns_per_fetch << " ns/fetch, "
            << fabric.allocs_per_fetch << " allocations/fetch\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  ipfs::common::JsonWriter json(out, /*pretty=*/true);
  json.begin_object();
  json.field("suite", "core");
  json.field("smoke", smoke);
  json.key("lookup");
  json.begin_object();
  json.field("table_size", static_cast<std::uint64_t>(lookup.table_size));
  json.field("queries", static_cast<std::uint64_t>(lookup.queries));
  json.field("closest_ns_per_query", lookup.closest_ns);
  json.field("sort_baseline_ns_per_query", lookup.baseline_ns);
  json.field("speedup", lookup.baseline_ns / lookup.closest_ns);
  json.end_object();
  json.key("event_queue");
  json.begin_object();
  json.field("events", static_cast<std::uint64_t>(events.events));
  json.field("ns_per_event", events.ns_per_event);
  json.field("events_per_sec", 1e9 / events.ns_per_event);
  json.field("hold_ns_per_event", events.hold_ns_per_event);
  json.field("heap_baseline_ns_per_event", events.heap_ns_per_event);
  json.field("speedup_vs_heap", events.speedup_vs_heap);
  json.end_object();
  json.key("conditions");
  json.begin_object();
  json.field("samples", static_cast<std::uint64_t>(conditions.samples));
  json.field("one_way_ns_per_sample", conditions.one_way_ns);
  json.field("dial_gate_ns_per_sample", conditions.gate_ns);
  json.end_object();
  json.key("churn_model");
  json.begin_object();
  json.field("samples", static_cast<std::uint64_t>(churn.samples));
  json.field("session_ns_per_draw", churn.session_ns);
  json.field("gap_ns_per_draw", churn.gap_ns);
  json.end_object();
  json.key("content_model");
  json.begin_object();
  json.field("samples", static_cast<std::uint64_t>(content.samples));
  json.field("publish_chain_ns_per_draw", content.publish_ns);
  json.field("fetch_chain_ns_per_draw", content.fetch_ns);
  json.end_object();
  json.key("campaign");
  json.begin_object();
  json.field("trials", static_cast<std::uint64_t>(campaign.trials));
  json.field("scale", campaign.scale);
  json.field("workers", static_cast<std::uint64_t>(campaign.workers));
  json.field("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("sequential_ms", campaign.sequential_ms);
  json.field("parallel_ms", campaign.parallel_ms);
  // On a single-core host a "speedup" number is noise about stream
  // buffering, not parallelism — keep the explanation, drop the figure.
  if (std::thread::hardware_concurrency() > 1) {
    json.field("speedup", campaign.sequential_ms / campaign.parallel_ms);
  } else {
    json.field("note",
               "single-core host (see hardware_concurrency): the parallel "
               "path degenerates to the sequential loop plus per-trial "
               "stream buffering, so a speedup figure would only measure "
               "buffering overhead and is omitted");
  }
  json.end_object();
  json.key("sharded_campaign");
  json.begin_object();
  json.field("scale", sharded.scale);
  json.field("shards", static_cast<std::uint64_t>(sharded.shards));
  json.field("workers", static_cast<std::uint64_t>(sharded.workers));
  json.field("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("sequential_ms", sharded.sequential_ms);
  json.field("sharded_ms", sharded.sharded_ms);
  json.field("bytes_identical", true);  // asserted above, or we exited
  // Same single-core policy as the campaign section: without a second
  // core the fan-outs serialize onto the caller and a speedup figure
  // would only measure pool overhead.
  if (std::thread::hardware_concurrency() > 1) {
    json.field("speedup", sharded.sequential_ms / sharded.sharded_ms);
  } else {
    json.field("note",
               "single-core host (see hardware_concurrency): shard "
               "fan-outs serialize onto the calling thread, so a speedup "
               "figure would only measure fork-join overhead and is "
               "omitted");
  }
  json.end_object();
  json.key("phase_program");
  json.begin_object();
  json.field("samples", static_cast<std::uint64_t>(phases.samples));
  json.field("rates_ns_per_lookup", phases.rates_ns);
  json.field("plain_campaign_ms", phases.plain_ms);
  json.field("phased_campaign_ms", phases.phased_ms);
  json.field("overhead", phases.phased_ms / phases.plain_ms);
  json.end_object();
  json.key("conn_trim");
  json.begin_object();
  json.field("low_water", trim.low_water);
  json.field("high_water", trim.high_water);
  json.field("idle_open", static_cast<std::uint64_t>(trim.idle_open));
  json.field("idle_ticks", static_cast<std::uint64_t>(trim.idle_ticks));
  json.field("idle_tick_ns", trim.idle_tick_ns);
  json.field("trim_open", static_cast<std::uint64_t>(trim.trim_open));
  json.field("trim_reps", static_cast<std::uint64_t>(trim.trim_reps));
  json.field("trimmed_per_tick", static_cast<std::uint64_t>(trim.trimmed_per_tick));
  json.field("trim_tick_ns", trim.trim_tick_ns);
  json.field("idle_share", trim.idle_tick_ns / trim.trim_tick_ns);
  json.end_object();
  json.key("dataset_export");
  json.begin_object();
  json.field("peers", static_cast<std::uint64_t>(dataset.peers));
  json.field("connections", static_cast<std::uint64_t>(dataset.connections));
  json.field("bytes", static_cast<std::uint64_t>(dataset.bytes));
  json.field("export_reps", static_cast<std::uint64_t>(dataset.export_reps));
  json.field("export_ns", dataset.export_ns);
  json.field("mb_per_s", dataset.mb_per_s);
  json.field("copy_reps", static_cast<std::uint64_t>(dataset.copy_reps));
  json.field("copy_ns", dataset.copy_ns);
  json.field("copy_share", dataset.copy_ns / dataset.export_ns);
  json.field("bytes_per_peer", dataset.bytes_per_peer);
  json.field("known_protocol_allocs", dataset.known_protocol_allocs);
  json.end_object();
  json.key("peerstore");
  json.begin_object();
  json.field("peers", static_cast<std::uint64_t>(peerstore.peers));
  json.field("protocols_per_identify",
             static_cast<std::uint64_t>(peerstore.protocols_per_identify));
  json.field("connect_ns", peerstore.connect_ns);
  json.field("identify_ns", peerstore.identify_ns);
  json.field("reidentify_ns", peerstore.reidentify_ns);
  json.field("reconnect_ns", peerstore.reconnect_ns);
  json.field("reidentify_allocs", peerstore.reidentify_allocs);
  json.field("identify_list_ns", peerstore.identify_list_ns);
  json.field("reidentify_list_ns", peerstore.reidentify_list_ns);
  json.field("list_speedup", peerstore.list_speedup);
  json.end_object();
  json.key("population");
  json.begin_object();
  json.field("peers", static_cast<std::uint64_t>(population.peers));
  json.field("builds", static_cast<std::uint64_t>(population.builds));
  json.field("build_ns_per_peer", population.build_ns_per_peer);
  json.field("bytes_per_peer", population.bytes_per_peer);
  json.field("distinct_agents", static_cast<std::uint64_t>(population.distinct_agents));
  json.field("distinct_protocol_sets",
             static_cast<std::uint64_t>(population.distinct_protocol_sets));
  json.end_object();
  json.key("content_fabric");
  json.begin_object();
  json.field("scale", fabric.scale);
  json.field("runs", static_cast<std::uint64_t>(fabric.runs));
  json.field("fetches", static_cast<std::uint64_t>(fabric.fetches));
  json.field("ns_per_fetch", fabric.ns_per_fetch);
  json.field("allocs_per_fetch", fabric.allocs_per_fetch);
  json.end_object();
  json.end_object();
  out << "\n";

  std::cout << "\nwrote " << out_path << "\n";

  if (baseline && !check_baseline(baseline_path, *baseline, events, trim, dataset,
                                  peerstore, population, fabric)) {
    return 1;
  }
  return 0;
}
