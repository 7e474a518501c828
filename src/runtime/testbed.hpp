// The runtime facade: the one public way to assemble and run experiments
// (DESIGN.md §3).
//
// `TestbedBuilder` owns the wiring every entry point used to repeat by
// hand — the Simulation clock, the message-level Network, the IpAllocator
// and the seed-derived RNG tree — and produces a `Testbed` that hands out
// `NodeHandle`s with auto-allocated addresses and deterministic per-node
// identities.  Population assembly is declarative and fluent:
//
//   auto testbed = runtime::TestbedBuilder().seed(42).build();
//   auto vantage = testbed.add_server(node::NodeConfig::dht_server(8, 12));
//   auto& recorder = vantage.attach_recorder();
//   testbed.add_servers(15).add_clients(10).bootstrap_all_via(vantage);
//   testbed.run_for(1 * common::kHour);
//   recorder.finish();
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crawler/crawler.hpp"
#include "hydra/hydra_node.hpp"
#include "measure/recorder.hpp"
#include "measure/sink.hpp"
#include "net/ip_allocator.hpp"
#include "net/network.hpp"
#include "node/go_ipfs_node.hpp"
#include "sim/simulation.hpp"

namespace ipfs::runtime {

class Testbed;

/// Lightweight, copyable reference to one node inside a `Testbed`; stays
/// valid as further nodes are added.
class NodeHandle {
 public:
  [[nodiscard]] node::GoIpfsNode& node() const;
  [[nodiscard]] const p2p::PeerId& id() const;
  [[nodiscard]] p2p::Swarm& swarm() const;

  /// Attach a measurement recorder to this node's swarm and start it
  /// recording immediately.  One recorder per node.
  measure::Recorder& attach_recorder(measure::RecorderConfig config = {}) const;
  [[nodiscard]] bool has_recorder() const;
  /// The attached recorder; attach_recorder must have been called.
  [[nodiscard]] measure::Recorder& recorder() const;

  /// Dial the given peers and run the boot lookups (go-ipfs boot
  /// behaviour); marks the node as bootstrapped for `bootstrap_all_via`.
  const NodeHandle& bootstrap(const std::vector<p2p::PeerId>& peers) const;

  /// Deregister from the network (node churn: remotes observe
  /// peer-offline closes).
  void stop() const;

 private:
  friend class Testbed;
  NodeHandle(Testbed& testbed, std::size_t index)
      : testbed_(&testbed), index_(index) {}

  Testbed* testbed_;
  std::size_t index_;
};

/// A fully wired experiment: clock, fabric, address space and nodes.
/// Obtained from `TestbedBuilder::build()`; not movable (nodes hold
/// references into it).
class Testbed {
 public:
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // ---- population assembly (fluent) ---------------------------------------

  /// Add one started go-ipfs node with an auto-allocated address and a
  /// deterministic per-node identity.
  NodeHandle add_node(node::NodeConfig config);
  NodeHandle add_server(node::NodeConfig config = node::NodeConfig::dht_server());
  NodeHandle add_client(node::NodeConfig config = node::NodeConfig::dht_client());

  Testbed& add_servers(int count,
                       node::NodeConfig config = node::NodeConfig::dht_server());
  Testbed& add_clients(int count,
                       node::NodeConfig config = node::NodeConfig::dht_client());

  /// Bootstrap every node that has not bootstrapped yet through `vantage`
  /// (the vantage itself is skipped).
  Testbed& bootstrap_all_via(NodeHandle vantage);

  /// Add a started multi-head hydra deployment.
  hydra::HydraNode& add_hydra(hydra::HydraConfig config = {});

  /// Add a started active crawler (nebula-style baseline).
  crawler::Crawler& add_crawler(crawler::CrawlerConfig config = {});

  // ---- execution -----------------------------------------------------------

  Testbed& run_for(common::SimDuration duration);
  Testbed& run_until(common::SimTime limit);

  /// Finish every attached recorder and publish its dataset into `sink`
  /// (role kOther), in node-addition order.
  Testbed& publish_recorders(measure::MeasurementSink& sink);

  // ---- access --------------------------------------------------------------

  [[nodiscard]] NodeHandle node(std::size_t index);
  [[nodiscard]] std::size_t node_count() const noexcept { return entries_.size(); }

  [[nodiscard]] sim::Simulation& simulation() noexcept { return simulation_; }
  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] net::IpAllocator& ips() noexcept { return ips_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  friend class TestbedBuilder;
  friend class NodeHandle;

  explicit Testbed(std::uint64_t seed);

  struct Entry {
    std::unique_ptr<node::GoIpfsNode> node;
    std::unique_ptr<measure::Recorder> recorder;
    bool bootstrapped = false;
  };

  /// Deterministic per-entity generator: depends only on the testbed seed
  /// and the entity's creation index, never on call interleaving.
  [[nodiscard]] common::Rng entity_rng(std::uint64_t label) noexcept;

  std::uint64_t seed_;
  sim::Simulation simulation_;
  net::Network network_;
  net::IpAllocator ips_;
  std::uint64_t next_entity_ = 0;
  std::vector<Entry> entries_;
  std::vector<std::unique_ptr<hydra::HydraNode>> hydras_;
  std::vector<std::unique_ptr<crawler::Crawler>> crawlers_;
};

/// Fluent builder over the testbed's one global knob, the root seed.
/// `build()` performs all Simulation/Network/IpAllocator/RNG-tree wiring.
class TestbedBuilder {
 public:
  /// Root of the RNG tree: every identity, address and latency sample in
  /// the testbed derives from this one seed.
  TestbedBuilder& seed(std::uint64_t value) {
    seed_ = value;
    return *this;
  }

  [[nodiscard]] Testbed build() const { return Testbed(seed_); }

 private:
  std::uint64_t seed_ = 20211203;
};

}  // namespace ipfs::runtime
