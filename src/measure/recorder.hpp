// The passive measurement recorder.
//
// Mirrors the instrumentation the paper added to its clients (§III-A:
// go-ipfs polled peer and connection data every 30 s; §III-B: hydra's extra
// PeriodicTasks ran every 1 min).  The recorder observes a swarm and its
// peerstore and accumulates a `Dataset`.  Timestamps are quantised to the
// poll interval, reproducing the paper's caveat that "connection
// information is only refreshed every 30 s and the real values should be
// slightly smaller than shown".
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "measure/dataset.hpp"
#include "measure/sink.hpp"
#include "p2p/peerstore.hpp"
#include "p2p/swarm.hpp"
#include "sim/simulation.hpp"

namespace ipfs::measure {

/// Recorder configuration.
struct RecorderConfig {
  std::string vantage = "go-ipfs";
  /// Observation resolution; 30 s for go-ipfs, 1 min for hydra heads.
  common::SimDuration poll_interval = 30 * common::kSecond;
  /// When true, open/close timestamps round *up* to the next poll tick, as
  /// a polling observer would see them.
  bool quantize = true;
};

/// Attaches to one swarm and builds the measurement dataset.
class Recorder : public p2p::SwarmObserver, public p2p::PeerstoreObserver {
 public:
  Recorder(sim::Simulation& simulation, p2p::Swarm& swarm, RecorderConfig config);
  ~Recorder() override;

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Begin recording (marks measurement_start).
  void start();

  /// End the measurement: connections still open are recorded as closed now
  /// with reason kMeasurementEnd — the paper's Table II convention.
  void finish();

  /// The dataset so far.  Read-only: the recorder's caches index into it.
  [[nodiscard]] const Dataset& dataset() const noexcept { return dataset_; }

  /// Move the dataset out.  Recording continues into a fresh dataset;
  /// connections open at the take are not part of it.
  [[nodiscard]] Dataset take_dataset();

  /// Finish (if still recording) and move the dataset into `sink` under the
  /// given role.  The recorder becomes inert.
  void publish(MeasurementSink& sink, DatasetRole role = DatasetRole::kOther);

  // p2p::SwarmObserver
  void on_connection_opened(const p2p::Connection& connection) override;
  void on_connection_closed(const p2p::Connection& connection) override;

  // p2p::PeerstoreObserver
  void on_peer_added(Slot slot, const p2p::PeerId& peer, SimTime now) override;
  void on_agent_changed(Slot slot, const p2p::PeerId& peer, const std::string& previous,
                        const std::string& current, SimTime now) override;
  void on_protocols_changed(Slot slot, const p2p::PeerId& peer,
                            std::span<const ProtocolId> added,
                            std::span<const ProtocolId> removed, SimTime now) override;
  void on_address_added(Slot slot, const p2p::PeerId& peer,
                        const p2p::Multiaddr& address, SimTime now) override;

 private:
  [[nodiscard]] SimTime observe_time(SimTime actual) const noexcept;
  /// The dataset index of the peer in peerstore `slot`: interned on first
  /// sight, otherwise touched at `at`.
  PeerIndex peer_index(Slot slot, const p2p::PeerId& peer, SimTime at);
  /// The dataset id of the peerstore's protocol `id`, interned on first
  /// sight.
  measure::ProtocolId protocol_id(ProtocolId id);
  /// Forget both caches, which index into the current dataset.
  void clear_caches();

  sim::Simulation& simulation_;
  p2p::Swarm& swarm_;
  RecorderConfig config_;
  Dataset dataset_;
  /// Open-connection bookkeeping: connection id -> (peer index, observed
  /// open time, direction).
  struct OpenConn {
    PeerIndex peer;
    SimTime opened;
    p2p::Direction direction;
  };
  std::unordered_map<p2p::ConnectionId, OpenConn> open_;
  /// Peerstore slot -> dataset index, kUnknown until first sight.
  std::vector<PeerIndex> peer_of_slot_;
  /// Peerstore ProtocolId -> dataset ProtocolId, kUnknown until first sight.
  std::vector<measure::ProtocolId> protocol_of_;
  static constexpr std::uint32_t kUnknown = UINT32_MAX;
  bool recording_ = false;
};

}  // namespace ipfs::measure
