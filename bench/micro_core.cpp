// Micro-benchmarks (google-benchmark) for the hot substrate paths: the
// event queue, Kademlia routing table, connection-manager trim planning and
// the §V-A union-find grouping.  These bound the cost of campaign-scale
// simulation (20M+ events for P0).
#include <benchmark/benchmark.h>

#include <chrono>

#include "analysis/size_estimation.hpp"
#include "common/rng.hpp"
#include "dht/routing_table.hpp"
#include "p2p/conn_manager.hpp"
#include "runtime/testbed.hpp"

namespace {

using namespace ipfs;

void BM_SimulationScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    // A fresh clock per iteration; manual timing keeps the facade's
    // (network, address-space) wiring out of the measured region.
    auto testbed = runtime::TestbedBuilder().seed(1).build();
    sim::Simulation& sim = testbed.simulation();
    const auto events = static_cast<std::size_t>(state.range(0));
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_at(static_cast<common::SimTime>(i % 1000), [] {});
    }
    sim.run();
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sim.executed_events());
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationScheduleRun)
    ->UseManualTime()
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

void BM_RoutingTableAdd(benchmark::State& state) {
  common::Rng rng(1);
  std::vector<p2p::PeerId> peers;
  for (int i = 0; i < 4096; ++i) peers.push_back(p2p::PeerId::random(rng));
  for (auto _ : state) {
    dht::RoutingTable table(p2p::PeerId::from_seed(42));
    for (const auto& peer : peers) benchmark::DoNotOptimize(table.add(peer, 0));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_RoutingTableAdd);

void BM_RoutingTableClosest(benchmark::State& state) {
  common::Rng rng(2);
  dht::RoutingTable table(p2p::PeerId::from_seed(42));
  for (int i = 0; i < 4096; ++i) table.add(p2p::PeerId::random(rng), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.closest(p2p::PeerId::random(rng), 20));
  }
}
BENCHMARK(BM_RoutingTableClosest);

void BM_ConnManagerPlanTrim(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<p2p::Connection> connections(count);
  for (std::size_t i = 0; i < count; ++i) {
    connections[i].id = i + 1;
    connections[i].remote = p2p::PeerId::from_seed(i + 1);
    connections[i].opened = 0;
  }
  std::vector<const p2p::Connection*> views;
  for (const auto& connection : connections) views.push_back(&connection);
  p2p::ConnManager manager(
      p2p::ConnManagerConfig::with_watermarks(static_cast<int>(count * 2 / 3),
                                              static_cast<int>(count - 1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.plan_trim(views, 1000 * common::kSecond));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConnManagerPlanTrim)->Arg(900)->Arg(20000);

void BM_MultiaddrGrouping(benchmark::State& state) {
  const auto peer_count = static_cast<std::size_t>(state.range(0));
  common::Rng rng(3);
  measure::Dataset dataset;
  for (std::size_t i = 0; i < peer_count; ++i) {
    const auto index = dataset.intern(p2p::PeerId::from_seed(i + 1), 0);
    // 10 % of peers share one of 64 NAT addresses.
    const auto ip = rng.bernoulli(0.1)
                        ? p2p::IpAddress::v4(static_cast<std::uint32_t>(
                              0x0a000000u + rng.uniform_u64(64)))
                        : p2p::IpAddress::v4(static_cast<std::uint32_t>(rng()));
    dataset.add_connected_ip(index, ip);
    dataset.add_connection({index, 0, 1000, p2p::Direction::kInbound,
                            p2p::CloseReason::kRemoteClose});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::group_by_multiaddr(dataset));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MultiaddrGrouping)->Arg(10000)->Arg(60000);

}  // namespace

BENCHMARK_MAIN();
