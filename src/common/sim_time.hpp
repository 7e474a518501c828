// Simulated time.  The entire library uses integer milliseconds since the
// start of a run; no component ever reads the wall clock (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <string>

namespace ipfs::common {

/// A point in simulated time, in milliseconds since simulation start.
using SimTime = std::int64_t;

/// A span of simulated time, in milliseconds.
using SimDuration = std::int64_t;

inline constexpr SimDuration kMillisecond = 1;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;
inline constexpr SimDuration kMinute = 60 * kSecond;
inline constexpr SimDuration kHour = 60 * kMinute;
inline constexpr SimDuration kDay = 24 * kHour;

[[nodiscard]] constexpr double to_seconds(SimDuration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

[[nodiscard]] constexpr SimDuration from_seconds(double seconds) noexcept {
  return static_cast<SimDuration>(seconds * static_cast<double>(kSecond));
}

/// Render a duration as "2d 03:14:15" (days shown only when non-zero).
[[nodiscard]] std::string format_duration(SimDuration d);

}  // namespace ipfs::common
