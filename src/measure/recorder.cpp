#include "measure/recorder.hpp"

#include <algorithm>

#include "p2p/protocols.hpp"

namespace ipfs::measure {

Recorder::Recorder(sim::Simulation& simulation, p2p::Swarm& swarm,
                   RecorderConfig config)
    : simulation_(simulation), swarm_(swarm), config_(std::move(config)) {
  dataset_.vantage = config_.vantage;
  swarm_.add_observer(this);
  swarm_.peerstore().add_observer(this);
}

Recorder::~Recorder() {
  swarm_.remove_observer(this);
  swarm_.peerstore().remove_observer(this);
}

SimTime Recorder::observe_time(SimTime actual) const noexcept {
  if (!config_.quantize || config_.poll_interval <= 0) return actual;
  const auto interval = config_.poll_interval;
  // A polling observer first notices a change at the next tick.
  return ((actual + interval - 1) / interval) * interval;
}

void Recorder::start() {
  recording_ = true;
  dataset_.measurement_start = simulation_.now();
  dataset_.measurement_end = simulation_.now();
}

void Recorder::finish() {
  if (!recording_) return;
  recording_ = false;
  dataset_.measurement_end = simulation_.now();
  // Paper convention: "All connections still active at the end of the
  // measurement are considered to be closed at that moment."
  // hash-order: ROADMAP item 1 (the records are appended in this order).
  for (const auto& [id, open] : open_) {
    ConnRecord record;
    record.peer = open.peer;
    record.opened = open.opened;
    record.closed = dataset_.measurement_end;
    record.direction = open.direction;
    record.reason = p2p::CloseReason::kMeasurementEnd;
    dataset_.add_connection(record);
  }
  open_.clear();
}

void Recorder::publish(MeasurementSink& sink, DatasetRole role) {
  finish();
  sink.on_dataset(role, take_dataset());
}

void Recorder::on_connection_opened(const p2p::Connection& connection) {
  if (!recording_) return;
  const SimTime now = observe_time(simulation_.now());
  const PeerIndex peer = dataset_.intern(connection.remote, now);
  dataset_.add_connected_ip(peer, connection.remote_addr.ip);
  open_[connection.id] = {peer, now, connection.direction};
}

void Recorder::on_connection_closed(const p2p::Connection& connection) {
  if (!recording_) return;
  const auto it = open_.find(connection.id);
  if (it == open_.end()) return;  // opened before the measurement started
  const OpenConn open = it->second;
  open_.erase(it);
  ConnRecord record;
  record.peer = open.peer;
  record.opened = open.opened;
  // The close is also first *observed* at a poll tick; clamp so duration
  // stays non-negative after quantisation.
  record.closed = std::max(observe_time(simulation_.now()), open.opened);
  record.direction = open.direction;
  record.reason = connection.reason;
  dataset_.add_connection(record);
  dataset_.record(open.peer).last_seen =
      std::max(dataset_.record(open.peer).last_seen, record.closed);
}

void Recorder::on_peer_added(const p2p::PeerId& peer, SimTime now) {
  if (!recording_) return;
  dataset_.intern(peer, observe_time(now));
}

void Recorder::on_agent_changed(const p2p::PeerId& peer, const std::string& previous,
                                const std::string& current, SimTime now) {
  if (!recording_) return;
  (void)previous;
  const SimTime at = observe_time(now);
  const PeerIndex index = dataset_.intern(peer, at);
  dataset_.add_agent(index, at, current);
}

void Recorder::on_protocols_changed(const p2p::PeerId& peer,
                                    std::span<const std::string_view> added,
                                    std::span<const std::string_view> removed,
                                    SimTime now) {
  if (!recording_) return;
  const SimTime at = observe_time(now);
  const PeerIndex index = dataset_.intern(peer, at);
  for (const std::string_view protocol : added) {
    dataset_.add_protocol_event(index, at, protocol, true);
    if (p2p::protocols::marks_dht_server(protocol)) {
      dataset_.record(index).ever_dht_server = true;
    }
  }
  for (const std::string_view protocol : removed) {
    dataset_.add_protocol_event(index, at, protocol, false);
  }
}

void Recorder::on_address_added(const p2p::PeerId& peer, const p2p::Multiaddr& address,
                                SimTime now) {
  if (!recording_) return;
  // Addresses learned via identify are *announced*, not necessarily
  // *connected*; §V-A groups by connected address, which
  // on_connection_opened captures.  We still intern the peer so
  // identify-only peers appear in the PID counts.
  (void)address;
  dataset_.intern(peer, observe_time(now));
}

}  // namespace ipfs::measure
