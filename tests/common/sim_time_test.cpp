#include "common/sim_time.hpp"

#include <gtest/gtest.h>

namespace ipfs::common {
namespace {

TEST(SimTime, UnitRelations) {
  EXPECT_EQ(kSecond, 1000);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
  EXPECT_EQ(kDay, 24 * kHour);
}

TEST(SimTime, ToSecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(1500), 1.5);
  EXPECT_EQ(from_seconds(1.5), 1500);
  EXPECT_EQ(from_seconds(to_seconds(73732)), 73732);
}

TEST(SimTime, FormatDurationWithoutDays) {
  EXPECT_EQ(format_duration(0), "00:00:00");
  EXPECT_EQ(format_duration(kHour + 2 * kMinute + 3 * kSecond), "01:02:03");
}

TEST(SimTime, FormatDurationWithDays) {
  EXPECT_EQ(format_duration(2 * kDay + 3 * kHour + 14 * kMinute + 15 * kSecond),
            "2d 03:14:15");
}

TEST(SimTime, FormatDurationNegative) {
  EXPECT_EQ(format_duration(-kMinute), "-00:01:00");
}

}  // namespace
}  // namespace ipfs::common
