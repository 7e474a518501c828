#include "runtime/testbed.hpp"

#include <cassert>
#include <utility>

namespace ipfs::runtime {

namespace {
// Fixed labels decorrelate the RNG-tree branches (DESIGN.md §5).
constexpr std::uint64_t kNetworkBranch = 0x6e21;
constexpr std::uint64_t kAddressBranch = 0x1bad;
constexpr std::uint64_t kEntityBranch = 0x1d5e;
constexpr std::uint64_t kConditionsBranch = 0x2c0d;
}  // namespace

// ---- NodeHandle ------------------------------------------------------------

node::GoIpfsNode& NodeHandle::node() const {
  return *testbed_->entries_.at(index_).node;
}

const p2p::PeerId& NodeHandle::id() const { return node().id(); }

p2p::Swarm& NodeHandle::swarm() const { return node().swarm(); }

measure::Recorder& NodeHandle::attach_recorder(measure::RecorderConfig config) const {
  Testbed::Entry& entry = testbed_->entries_.at(index_);
  assert(entry.recorder == nullptr && "one recorder per node");
  entry.recorder = std::make_unique<measure::Recorder>(
      testbed_->simulation_, entry.node->swarm(), std::move(config));
  entry.recorder->start();
  return *entry.recorder;
}

void NodeHandle::stop() const { node().stop(); }

// ---- Testbed ---------------------------------------------------------------

Testbed::Testbed(std::uint64_t seed)
    : seed_(seed),
      network_(simulation_, common::Rng(common::mix64(seed, kNetworkBranch)),
               net::ConditionModel(net::ConditionSpec{},
                                   common::mix64(seed, kConditionsBranch))),
      ips_(common::Rng(common::mix64(seed, kAddressBranch))) {}

common::Rng Testbed::entity_rng(std::uint64_t label) noexcept {
  return common::Rng(
      common::mix64(common::mix64(seed_, kEntityBranch), label));
}

NodeHandle Testbed::add_node(node::NodeConfig config) {
  common::Rng rng = entity_rng(next_entity_++);
  Entry entry;
  entry.node = std::make_unique<node::GoIpfsNode>(
      simulation_, network_, p2p::PeerId::random(rng),
      net::swarm_tcp_addr(ips_.unique_v4()), std::move(config));
  entry.node->start();
  entries_.push_back(std::move(entry));
  return NodeHandle(*this, entries_.size() - 1);
}

NodeHandle Testbed::add_server(node::NodeConfig config) {
  return add_node(std::move(config));
}

Testbed& Testbed::add_servers(int count, node::NodeConfig config) {
  for (int i = 0; i < count; ++i) add_node(config);
  return *this;
}

Testbed& Testbed::add_clients(int count, node::NodeConfig config) {
  for (int i = 0; i < count; ++i) add_node(config);
  return *this;
}

Testbed& Testbed::bootstrap_all_via(NodeHandle vantage) {
  const p2p::PeerId& via = vantage.id();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& entry = entries_[i];
    if (i == vantage.index_ || entry.bootstrapped) continue;
    entry.node->bootstrap({via});
    entry.bootstrapped = true;
  }
  return *this;
}

crawler::Crawler& Testbed::add_crawler(crawler::CrawlerConfig config) {
  common::Rng rng = entity_rng(next_entity_++);
  crawlers_.push_back(std::make_unique<crawler::Crawler>(
      simulation_, network_, p2p::PeerId::random(rng),
      net::swarm_tcp_addr(ips_.unique_v4()), std::move(config)));
  crawlers_.back()->start();
  return *crawlers_.back();
}

Testbed& Testbed::run_for(common::SimDuration duration) {
  simulation_.run_until(simulation_.now() + duration);
  return *this;
}

NodeHandle Testbed::node(std::size_t index) {
  assert(index < entries_.size());
  return NodeHandle(*this, index);
}

}  // namespace ipfs::runtime
