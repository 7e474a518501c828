#include "common/sim_time.hpp"

#include <cstdio>

namespace ipfs::common {

std::string format_duration(SimDuration d) {
  const bool negative = d < 0;
  if (negative) d = -d;
  const std::int64_t days = d / kDay;
  const std::int64_t hours = (d % kDay) / kHour;
  const std::int64_t minutes = (d % kHour) / kMinute;
  const std::int64_t seconds = (d % kMinute) / kSecond;
  char buffer[64];
  if (days > 0) {
    std::snprintf(buffer, sizeof(buffer), "%s%lldd %02lld:%02lld:%02lld",
                  negative ? "-" : "", static_cast<long long>(days),
                  static_cast<long long>(hours), static_cast<long long>(minutes),
                  static_cast<long long>(seconds));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%s%02lld:%02lld:%02lld", negative ? "-" : "",
                  static_cast<long long>(hours), static_cast<long long>(minutes),
                  static_cast<long long>(seconds));
  }
  return buffer;
}

}  // namespace ipfs::common
