#include "p2p/multiaddr.hpp"

#include <gtest/gtest.h>

namespace ipfs::p2p {
namespace {

TEST(IpAddress, V4RoundTrip) {
  const auto ip = IpAddress::parse("147.28.0.5");
  ASSERT_TRUE(ip.has_value());
  EXPECT_FALSE(ip->is_v6());
  EXPECT_EQ(ip->to_string(), "147.28.0.5");
}

TEST(IpAddress, V4RejectsMalformed) {
  EXPECT_FALSE(IpAddress::parse("1.2.3").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(IpAddress::parse("256.1.1.1").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
  EXPECT_FALSE(IpAddress::parse("").has_value());
}

TEST(IpAddress, V6RoundTrip) {
  const auto ip = IpAddress::parse("2001:db8:0:0:0:0:0:1");
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(ip->is_v6());
  EXPECT_EQ(ip->to_string(), "2001:db8:0:0:0:0:0:1");
}

TEST(IpAddress, V6RejectsWrongGroupCount) {
  EXPECT_FALSE(IpAddress::parse("2001:db8:0:0:1").has_value());
  EXPECT_FALSE(IpAddress::parse("1:2:3:4:5:6:7:8:9").has_value());
}

TEST(IpAddress, EqualityAndOrdering) {
  const auto a = IpAddress::v4(0x01020304);
  const auto b = IpAddress::v4(0x01020305);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, IpAddress::v4(0x01020304));
  // v4 and v6 with the same payload are distinct addresses.
  EXPECT_NE(a, IpAddress::v6(0, 0x01020304));
}

TEST(IpAddress, HashDistinguishesFamilies) {
  const auto v4 = IpAddress::v4(42);
  const auto v6 = IpAddress::v6(0, 42);
  EXPECT_NE(std::hash<IpAddress>{}(v4), std::hash<IpAddress>{}(v6));
}

TEST(Multiaddr, OrderingGroupsByIp) {
  const Multiaddr a{IpAddress::v4(1), Transport::kTcp, 1};
  const Multiaddr b{IpAddress::v4(1), Transport::kTcp, 2};
  const Multiaddr c{IpAddress::v4(2), Transport::kTcp, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

}  // namespace
}  // namespace ipfs::p2p
