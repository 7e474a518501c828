#include "p2p/multiaddr.hpp"

#include <gtest/gtest.h>

#include <ostream>

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

TEST(Multiaddr, TcpToString) {
  const Multiaddr addr{IpAddress::v4(0x7f000001), Transport::kTcp, 4001};
  EXPECT_EQ(addr.to_string(), "/ip4/127.0.0.1/tcp/4001");
}

TEST(Multiaddr, QuicToString) {
  const Multiaddr addr{IpAddress::v4(0x01010101), Transport::kQuic, 4001};
  EXPECT_EQ(addr.to_string(), "/ip4/1.1.1.1/udp/4001/quic");
}

TEST(Multiaddr, WebsocketToString) {
  const Multiaddr addr{IpAddress::v4(0x01010101), Transport::kWebsocket, 8081};
  EXPECT_EQ(addr.to_string(), "/ip4/1.1.1.1/tcp/8081/ws");
}

struct RoundTripCase {
  const char* text;
};

// Without this gtest prints the case as raw bytes of the pointer, which
// makes the discovered ctest name change with every process's address layout.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.text; }

class MultiaddrRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(MultiaddrRoundTrip, ParsePrintIdentity) {
  const auto addr = Multiaddr::parse(GetParam().text);
  ASSERT_TRUE(addr.has_value()) << GetParam().text;
  EXPECT_EQ(addr->to_string(), GetParam().text);
}

INSTANTIATE_TEST_SUITE_P(
    Addresses, MultiaddrRoundTrip,
    ::testing::Values(RoundTripCase{"/ip4/147.28.0.5/tcp/4001"},
                      RoundTripCase{"/ip4/10.0.0.1/udp/4001/quic"},
                      RoundTripCase{"/ip4/8.8.8.8/tcp/8081/ws"},
                      RoundTripCase{"/ip6/2001:db8:0:0:0:0:0:1/tcp/4001"}));

TEST(Multiaddr, ParseRejectsMalformed) {
  EXPECT_FALSE(Multiaddr::parse("").has_value());
  EXPECT_FALSE(Multiaddr::parse("ip4/1.2.3.4/tcp/1").has_value());
  EXPECT_FALSE(Multiaddr::parse("/ip5/1.2.3.4/tcp/1").has_value());
  EXPECT_FALSE(Multiaddr::parse("/ip4/1.2.3.4/tcp").has_value());
  EXPECT_FALSE(Multiaddr::parse("/ip4/1.2.3.4/udp/1").has_value());  // udp needs quic
  EXPECT_FALSE(Multiaddr::parse("/ip4/1.2.3.4/sctp/1").has_value());
  EXPECT_FALSE(Multiaddr::parse("/ip4/1.2.3.4/tcp/notaport").has_value());
}

TEST(Multiaddr, OrderingGroupsByIp) {
  const Multiaddr a{IpAddress::v4(1), Transport::kTcp, 1};
  const Multiaddr b{IpAddress::v4(1), Transport::kTcp, 2};
  const Multiaddr c{IpAddress::v4(2), Transport::kTcp, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(TransportNames, Stable) {
  EXPECT_EQ(to_string(Transport::kTcp), "tcp");
  EXPECT_EQ(to_string(Transport::kQuic), "quic");
  EXPECT_EQ(to_string(Transport::kWebsocket), "ws");
}

}  // namespace
}  // namespace ipfs::p2p
