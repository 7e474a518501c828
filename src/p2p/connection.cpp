#include "p2p/connection.hpp"

namespace ipfs::p2p {

std::string_view to_string(Direction direction) noexcept {
  return direction == Direction::kInbound ? "inbound" : "outbound";
}

std::string_view to_string(CloseReason reason) noexcept {
  switch (reason) {
    case CloseReason::kNone: return "none";
    case CloseReason::kLocalTrim: return "local-trim";
    case CloseReason::kRemoteTrim: return "remote-trim";
    case CloseReason::kRemoteClose: return "remote-close";
    case CloseReason::kLocalClose: return "local-close";
    case CloseReason::kPeerOffline: return "peer-offline";
    case CloseReason::kError: return "error";
    case CloseReason::kMeasurementEnd: return "measurement-end";
  }
  return "?";
}

std::optional<Direction> direction_from_string(std::string_view name) noexcept {
  for (const Direction direction : {Direction::kInbound, Direction::kOutbound}) {
    if (to_string(direction) == name) return direction;
  }
  return std::nullopt;
}

std::optional<CloseReason> close_reason_from_string(std::string_view name) noexcept {
  for (auto value = static_cast<std::uint8_t>(CloseReason::kNone);
       value <= static_cast<std::uint8_t>(CloseReason::kMeasurementEnd); ++value) {
    if (to_string(static_cast<CloseReason>(value)) == name) {
      return static_cast<CloseReason>(value);
    }
  }
  return std::nullopt;
}

}  // namespace ipfs::p2p
