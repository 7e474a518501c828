#include "net/ip_allocator.hpp"

#include <gtest/gtest.h>

#include <set>

namespace ipfs::net {
namespace {

TEST(IpAllocator, UniqueV4NeverRepeats) {
  IpAllocator allocator{common::Rng(1)};
  std::set<p2p::IpAddress> seen;
  for (int i = 0; i < 20000; ++i) {
    EXPECT_TRUE(seen.insert(allocator.unique_v4()).second);
  }
  EXPECT_EQ(seen.size(), 20000u);
}

TEST(IpAllocator, UniqueV4AvoidsReservedRanges) {
  IpAllocator allocator{common::Rng(2)};
  for (int i = 0; i < 5000; ++i) {
    const auto text = allocator.unique_v4().to_string();
    EXPECT_NE(text.substr(0, 3), "10.");
    EXPECT_NE(text.substr(0, 4), "127.");
    EXPECT_NE(text.substr(0, 8), "192.168.");
    EXPECT_NE(text.substr(0, 2), "0.");
    // 224.0.0.0/3 (multicast + reserved) excluded.
    const int first_octet = std::stoi(text.substr(0, text.find('.')));
    EXPECT_LT(first_octet, 224);
  }
}

TEST(IpAllocator, SharedPoolIsStable) {
  IpAllocator allocator{common::Rng(4)};
  const auto a = allocator.shared_v4("hydra-dc-1");
  const auto b = allocator.shared_v4("hydra-dc-1");
  const auto c = allocator.shared_v4("hydra-dc-2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(IpAllocator, SharedPoolsNeverCollideWithUnique) {
  IpAllocator allocator{common::Rng(5)};
  std::set<p2p::IpAddress> all;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(all.insert(allocator.shared_v4("pool-" + std::to_string(i))).second);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(all.insert(allocator.unique_v4()).second);
  }
}

TEST(IpAllocator, DeterministicAcrossInstances) {
  IpAllocator a{common::Rng(6)};
  IpAllocator b{common::Rng(6)};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.unique_v4(), b.unique_v4());
}

TEST(SwarmTcpAddr, DefaultPort) {
  const auto addr = swarm_tcp_addr(p2p::IpAddress::v4(0x01020304));
  EXPECT_EQ(addr.ip, p2p::IpAddress::v4(0x01020304));
  EXPECT_EQ(addr.transport, p2p::Transport::kTcp);
  EXPECT_EQ(addr.port, 4001);
  const auto custom = swarm_tcp_addr(p2p::IpAddress::v4(0x01020304), 3001);
  EXPECT_EQ(custom.port, 3001);
}

}  // namespace
}  // namespace ipfs::net
