// Active DHT crawler — the measurement baseline the paper compares against
// (§II, §III-C: the Weizenbaum crawler and the Nebula crawler).
//
// The crawler walks the Kademlia graph: it dials every discovered DHT
// server, dumps the peer's routing table with prefix-targeted FIND_NODE
// queries, enqueues newly learned peers and disconnects.  Each crawl is a
// fresh snapshot that only contains *online DHT servers* — clients and
// departed peers are invisible to it, which is the crux of the
// passive-vs-active horizon comparison in Fig. 2.
#pragma once

#include <functional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dht/kad.hpp"
#include "measure/sink.hpp"
#include "net/network.hpp"
#include "p2p/swarm.hpp"
#include "sim/simulation.hpp"

namespace ipfs::crawler {

/// Outcome of one full crawl.
struct CrawlResult {
  common::SimTime started = 0;
  common::SimTime finished = 0;
  std::set<p2p::PeerId> reached;      ///< servers that answered
  std::set<p2p::PeerId> learned;      ///< every PID seen in any response
  std::size_t dial_failures = 0;
  std::size_t queries_sent = 0;
};

/// Configuration of the crawl strategy.
struct CrawlerConfig {
  /// Parallel peer visits (nebula uses on the order of hundreds; the
  /// simulated network is happy with less).
  std::size_t max_in_flight = 32;
  /// Routing-table dump depth: one FIND_NODE per flipped-prefix target.
  std::size_t bucket_probes = 16;
  common::SimDuration request_timeout = 10 * common::kSecond;
  std::string agent = "nebula-crawler/1.0.0";
};

/// The crawler node.  One instance performs repeated crawls (the paper's
/// reference crawler runs every 8 h).
class Crawler : public net::Host {
 public:
  Crawler(sim::Simulation& simulation, net::Network& network, p2p::PeerId id,
          p2p::Multiaddr address, CrawlerConfig config);
  /// Deregisters (`stop`), so a crawler may die before its network.
  ~Crawler() override;

  void start();  ///< register with the network
  void stop();   ///< cancel periodic crawls and deregister; idempotent

  /// Crawl once, starting from the bootstrap peers; `done` receives the
  /// snapshot when the frontier is exhausted.
  void crawl(const std::vector<p2p::PeerId>& bootstrap,
             std::function<void(CrawlResult)> done);

  /// Crawl every `interval` (first immediately); results accumulate in
  /// `history()`.
  void crawl_periodically(const std::vector<p2p::PeerId>& bootstrap,
                          common::SimDuration interval);

  [[nodiscard]] const std::vector<CrawlResult>& history() const noexcept {
    return history_;
  }

  /// Publish every completed crawl (from `crawl` or `crawl_periodically`)
  /// as a `CrawlObservation` the moment its frontier drains.  Pass nullptr
  /// to detach.
  void set_sink(measure::MeasurementSink* sink) noexcept { sink_ = sink; }

  /// Smallest / largest number of reached servers across crawls — the
  /// min/max band the paper plots in Fig. 2.
  [[nodiscard]] std::pair<std::size_t, std::size_t> reached_min_max() const;

  [[nodiscard]] p2p::Swarm& swarm() noexcept { return swarm_; }

  // net::Host
  [[nodiscard]] Endpoint endpoint() override { return Endpoint::of(swarm_); }
  /// Crawlers never serve anything: inbound dials are refused (peers learn
  /// the crawler's PID from its queries and do try to dial back).
  [[nodiscard]] bool accept_inbound(const p2p::PeerId& from) override;
  void handle_message(const p2p::PeerId& from, const net::Message& message) override;

 private:
  struct Visit {
    std::size_t outstanding = 0;  ///< FIND_NODE replies still expected
  };

  void visit_next();
  void begin_visit(const p2p::PeerId& peer);
  void send_probes(const p2p::PeerId& peer);
  void finish_visit(const p2p::PeerId& peer);
  void enqueue(const p2p::PeerId& peer);

  sim::Simulation& simulation_;
  net::Network& network_;
  CrawlerConfig config_;
  p2p::Swarm swarm_;

  // State of the crawl in progress.
  bool crawling_ = false;
  CrawlResult current_;
  std::function<void(CrawlResult)> done_;
  std::vector<p2p::PeerId> frontier_;
  std::unordered_set<p2p::PeerId> enqueued_;
  std::unordered_map<p2p::PeerId, Visit> visiting_;
  std::unordered_map<std::uint64_t, p2p::PeerId> pending_requests_;
  std::uint64_t next_request_id_ = 1;

  std::vector<CrawlResult> history_;
  sim::TaskId periodic_task_ = sim::kInvalidTask;
  measure::MeasurementSink* sink_ = nullptr;
};

}  // namespace ipfs::crawler
