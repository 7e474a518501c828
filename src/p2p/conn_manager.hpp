// Connection manager: go-libp2p's watermark-based connection trimming.
//
// This is the mechanism at the heart of the paper: once a node holds more
// than `HighWater` connections, the manager closes the lowest-valued
// connections outside the grace period until only `LowWater` remain
// (§III, §IV-A).  go-ipfs defaults are LowWater=600 / HighWater=900 /
// GracePeriod=20 s; the paper's Table I varies exactly these knobs.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/sim_time.hpp"
#include "p2p/connection.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::p2p {

/// Watermark configuration of the connection manager.
struct ConnManagerConfig {
  int low_water = 600;
  int high_water = 900;
  common::SimDuration grace_period = 20 * common::kSecond;
  /// How often the background trim loop runs (go-libp2p uses 10 s ticks;
  /// trims also fire immediately when HighWater is crossed).
  common::SimDuration check_interval = 10 * common::kSecond;

  [[nodiscard]] static ConnManagerConfig go_ipfs_default() { return {}; }
  [[nodiscard]] static ConnManagerConfig with_watermarks(int low, int high) {
    ConnManagerConfig config;
    config.low_water = low;
    config.high_water = high;
    return config;
  }
};

/// Decides which connections to trim.  The swarm owns the connection table;
/// this class owns only tag values and protection flags.
class ConnManager {
 public:
  explicit ConnManager(ConnManagerConfig config) : config_(config) {}

  [[nodiscard]] const ConnManagerConfig& config() const noexcept { return config_; }

  /// Tag a peer with a value; higher values survive trims longer.  The DHT
  /// tags routing-table members, keeping them connected (§III-A: "Other
  /// nodes rather connect and maintain a connection to a DHT-Server").
  void set_tag(const PeerId& peer, int value) { tags_[peer] = value; }
  void clear_tag(const PeerId& peer) { tags_.erase(peer); }
  [[nodiscard]] int tag(const PeerId& peer) const;

  /// Protected peers are never trimmed (bootstrap peers etc.).
  void protect(const PeerId& peer) { protected_.insert(peer); }
  void unprotect(const PeerId& peer) { protected_.erase(peer); }
  [[nodiscard]] bool is_protected(const PeerId& peer) const {
    return protected_.contains(peer);
  }

  /// Given the currently open connections, return the ids to close so the
  /// table returns to LowWater.  Empty unless `open.size() > HighWater`.
  /// Candidates within the grace period or protected are skipped; remaining
  /// candidates close in ascending (tag, salted hash) order: the
  /// lowest-valued go first, and within one tag a pseudo-random subset keyed
  /// by `mix64(id, now)`, mirroring go-libp2p's arbitrary in-segment order.
  /// Equal (tag, salt) pairs keep whatever order std::sort leaves them in
  /// over `open`'s order, so callers must pass a stable snapshot order.
  [[nodiscard]] std::vector<ConnectionId> plan_trim(
      const std::vector<const Connection*>& open, common::SimTime now) const;

 private:
  ConnManagerConfig config_;
  std::unordered_map<PeerId, int> tags_;
  std::unordered_set<PeerId> protected_;
};

}  // namespace ipfs::p2p
