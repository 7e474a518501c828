// Copies of one measure::Dataset used on several threads at once: each
// thread exports its copy, reads its connections_by_peer() cache and then
// writes to its copy, while the body they share is read by the others.
// Runs under the ThreadSanitizer CI leg (`ctest -L runtime`, DESIGN.md §4).
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <thread>

#include "measure/dataset.hpp"

namespace ipfs::measure {
namespace {

Dataset shared_dataset() {
  Dataset dataset;
  dataset.vantage = "go-ipfs";
  dataset.measurement_end = 10'000;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const PeerIndex peer = dataset.intern(p2p::PeerId::from_seed(i + 1),
                                          static_cast<SimTime>(i));
    dataset.add_agent(peer, static_cast<SimTime>(i), "go-ipfs");
    for (SimTime c = 0; c < 3; ++c) {
      dataset.add_connection({peer, c, c + 100, p2p::Direction::kInbound,
                              p2p::CloseReason::kRemoteClose});
    }
  }
  return dataset;
}

std::string exported(const Dataset& dataset) {
  std::ostringstream out;
  dataset.export_json(out);
  return out.str();
}

TEST(DatasetThreads, CopiesExportAndMutateConcurrently) {
  const Dataset original = shared_dataset();
  const std::string expected = exported(original);

  struct Outcome {
    std::string before;
    std::size_t by_peer = 0;
    std::size_t peers_after = 0;
    std::string original_after;
  };
  std::array<Outcome, 2> outcomes;
  std::array<std::thread, 2> threads;
  for (std::size_t t = 0; t < threads.size(); ++t) {
    threads[t] = std::thread([&original, &outcome = outcomes[t], t] {
      Dataset copy = original;
      outcome.before = exported(copy);
      outcome.by_peer = copy.connections_by_peer().size();
      copy.intern(p2p::PeerId::from_seed(10'000 + t), 1);
      copy.record(0).ever_dht_server = true;
      outcome.peers_after = copy.peer_count();
      outcome.original_after = exported(original);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (const Outcome& outcome : outcomes) {
    EXPECT_EQ(outcome.before, expected);
    EXPECT_EQ(outcome.by_peer, 500u);
    EXPECT_EQ(outcome.peers_after, 501u);
    EXPECT_EQ(outcome.original_after, expected);
  }
  EXPECT_EQ(exported(original), expected);
}

}  // namespace
}  // namespace ipfs::measure
