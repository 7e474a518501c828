// Message-level simulated network ("protocol fidelity" mode, DESIGN.md §2).
//
// Hosts register under their PeerId; dials complete after a sampled RTT,
// successful dials create a mirrored pair of `Connection`s in both swarms,
// and `send()` delivers typed messages after one-way latency.  When either
// side closes (deliberately or via its connection manager), the counterpart
// observes the close with the mirrored reason — exactly the asymmetry the
// paper leans on when attributing short connections to *remote* trimming.
//
// Latency, loss, NAT reachability and scheduled disturbances all come from
// the pluggable `net::ConditionModel` (conditions.hpp, DESIGN.md §9); the
// default model reproduces the original flat `LatencyModel` fabric
// bit-for-bit.
#pragma once

#include <any>
#include <functional>
#include <memory>
#include <string_view>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "net/conditions.hpp"
#include "p2p/swarm.hpp"
#include "sim/simulation.hpp"

namespace ipfs::net {

/// Typed message envelope; `body` is a protocol-specific struct.
struct Message {
  /// A view of static storage: one of the `p2p::protocols` constants or a
  /// string literal, never a temporary string.
  std::string_view protocol;
  std::any body;
};

/// A network participant: owns a swarm and handles inbound messages.
///
/// Lifetime contract: a registered host must either outlive the `Network`
/// or deregister (`Network::remove_host`) before it is destroyed — the
/// network detaches its swarm taps through the virtual `swarm()` accessor
/// on both paths.  The shipped hosts (GoIpfsNode, HydraNode, Crawler)
/// deregister in their destructors via `stop()`.
class Host {
 public:
  virtual ~Host() = default;
  [[nodiscard]] virtual p2p::Swarm& swarm() = 0;
  /// Connection gating; return false to refuse an inbound dial.
  [[nodiscard]] virtual bool accept_inbound(const p2p::PeerId& from) {
    (void)from;
    return true;
  }
  virtual void handle_message(const p2p::PeerId& from, const Message& message) {
    (void)from;
    (void)message;
  }
};

/// The simulated transport fabric connecting registered hosts.
class Network {
 public:
  Network(sim::Simulation& simulation, common::Rng rng,
          ConditionModel conditions = ConditionModel{});
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register a host (keyed by its swarm's local id) and begin observing
  /// its swarm so closes propagate to counterparts.
  void add_host(Host& host);

  /// Remove a host; all of its connections close as kPeerOffline on the
  /// remote side (the node left the network).
  void remove_host(const p2p::PeerId& id);

  [[nodiscard]] bool online(const p2p::PeerId& id) const {
    return hosts_.contains(id);
  }

  /// Asynchronously dial `to` from `from`.  `on_done(success)` fires after
  /// one RTT.  Fails when either side is offline, the target refuses, the
  /// pair is already connected (one net-level connection per pair), or the
  /// condition model vetoes it (NAT class, outage/partition, dial loss).
  void dial(const p2p::PeerId& from, const p2p::PeerId& to,
            std::function<void(bool)> on_done = {});

  /// Deliver a message after one-way latency; dropped silently when the
  /// pair is not connected at send time, the condition model loses it
  /// (message loss, outage, partition), or the target is gone on arrival.
  void send(const p2p::PeerId& from, const p2p::PeerId& to, Message message);

  /// Close the pair's connection, initiated by `initiator`.
  void disconnect(const p2p::PeerId& initiator, const p2p::PeerId& other,
                  p2p::CloseReason reason = p2p::CloseReason::kLocalClose);

  [[nodiscard]] bool connected(const p2p::PeerId& a, const p2p::PeerId& b) const;

  [[nodiscard]] common::SimDuration latency(const p2p::PeerId& a,
                                            const p2p::PeerId& b);

  [[nodiscard]] const ConditionModel& conditions() const noexcept {
    return conditions_;
  }

 private:
  /// Key with deterministic order so (a,b) and (b,a) collide.
  using LinkKey = std::pair<p2p::PeerId, p2p::PeerId>;
  struct LinkKeyHash {
    std::size_t operator()(const LinkKey& key) const noexcept {
      const p2p::PeerIdHash hash;
      return hash(key.first) ^ (hash(key.second) * 0x9e3779b97f4a7c15ULL);
    }
  };

  static LinkKey make_key(const p2p::PeerId& a, const p2p::PeerId& b) {
    return a < b ? LinkKey{a, b} : LinkKey{b, a};
  }

  /// Per-host observer adapter: tells the network *which* swarm closed a
  /// connection so the counterpart side can be mirrored.
  struct SwarmTap final : p2p::SwarmObserver {
    Network* network = nullptr;
    p2p::PeerId local;
    void on_connection_opened(const p2p::Connection& connection) override;
    void on_connection_closed(const p2p::Connection& connection) override;
  };

  void handle_local_close(const p2p::PeerId& local, const p2p::Connection& connection);

  sim::Simulation& simulation_;
  common::Rng rng_;
  ConditionModel conditions_;
  common::FlatMap<p2p::PeerId, Host*, p2p::PeerIdHash> hosts_;
  common::FlatMap<p2p::PeerId, std::unique_ptr<SwarmTap>, p2p::PeerIdHash> taps_;
  /// Connected pairs.  A set: dial's opens can trim, and a trim erases
  /// other links, so no entry may be held across them.
  common::FlatSet<LinkKey, LinkKeyHash> links_;
  /// True while the network itself is closing a counterpart connection;
  /// suppresses infinite mirror recursion.
  bool mirroring_ = false;
};

}  // namespace ipfs::net
