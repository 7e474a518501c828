// Connection records.
//
// The unit of observation in the paper's churn analysis is a *connection*
// (identified by a connection-id), not a peer: one PID may contribute many
// connections over a measurement period (Table II "All" vs "Peer").
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/sim_time.hpp"
#include "p2p/multiaddr.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::p2p {

using common::SimDuration;
using common::SimTime;

/// Who initiated the connection, from the local node's perspective.
enum class Direction : std::uint8_t { kInbound, kOutbound };

/// Why a connection ended.  `kMeasurementEnd` matches the paper's rule that
/// connections still open at the end of a period count as closed then.
enum class CloseReason : std::uint8_t {
  kNone,            ///< still open
  kLocalTrim,       ///< our connection manager trimmed it
  kRemoteTrim,      ///< the remote's connection manager trimmed it
  kRemoteClose,     ///< remote closed deliberately (e.g. query finished)
  kLocalClose,      ///< we closed deliberately
  kPeerOffline,     ///< remote session ended / node left the network
  kError,           ///< transport failure
  kMeasurementEnd,  ///< run ended while the connection was open
};

[[nodiscard]] std::string_view to_string(Direction direction) noexcept;
[[nodiscard]] std::string_view to_string(CloseReason reason) noexcept;
/// The inverses of to_string; nullopt for any other name.
[[nodiscard]] std::optional<Direction> direction_from_string(std::string_view name) noexcept;
[[nodiscard]] std::optional<CloseReason> close_reason_from_string(
    std::string_view name) noexcept;

using ConnectionId = std::uint64_t;

/// State of one connection as tracked by a `Swarm`.
struct Connection {
  ConnectionId id = 0;
  PeerId remote;
  Multiaddr remote_addr;
  Direction direction = Direction::kInbound;
  SimTime opened = 0;
  SimTime closed = -1;  ///< -1 while open
  CloseReason reason = CloseReason::kNone;

  [[nodiscard]] bool is_open() const noexcept { return closed < 0; }

  /// Lifetime of the connection; for open connections, the span up to `now`.
  [[nodiscard]] SimDuration duration_at(SimTime now) const noexcept {
    return (is_open() ? now : closed) - opened;
  }
};

}  // namespace ipfs::p2p
