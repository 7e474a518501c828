#include "p2p/conn_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "common/rng.hpp"

namespace ipfs::p2p {
namespace {

using common::kSecond;

/// Helper: build `count` open connections with ages spread one second apart
/// (oldest first), all older than the grace period by default.
std::vector<Connection> make_connections(std::size_t count,
                                         common::SimTime now = 1000 * kSecond) {
  std::vector<Connection> connections(count);
  for (std::size_t i = 0; i < count; ++i) {
    connections[i].id = i + 1;
    connections[i].remote = PeerId::from_seed(i + 1);
    connections[i].opened = now - static_cast<common::SimTime>(count - i) * kSecond -
                            30 * kSecond;
  }
  return connections;
}

std::vector<const Connection*> views(const std::vector<Connection>& connections) {
  std::vector<const Connection*> pointers;
  for (const Connection& connection : connections) pointers.push_back(&connection);
  return pointers;
}

TEST(ConnManager, NoTrimBelowHighWater) {
  ConnManager manager(ConnManagerConfig::with_watermarks(5, 10));
  const auto connections = make_connections(10);
  EXPECT_TRUE(manager.plan_trim(views(connections), 1000 * kSecond).empty());
}

TEST(ConnManager, TrimsDownToLowWater) {
  ConnManager manager(ConnManagerConfig::with_watermarks(5, 10));
  const auto connections = make_connections(14);
  const auto plan = manager.plan_trim(views(connections), 1000 * kSecond);
  EXPECT_EQ(plan.size(), 9u);  // 14 -> 5
}

TEST(ConnManager, GracePeriodProtectsNewConnections) {
  ConnManagerConfig config = ConnManagerConfig::with_watermarks(2, 4);
  ConnManager manager(config);
  const common::SimTime now = 1000 * kSecond;
  auto connections = make_connections(6, now);
  // Make every connection brand new: all inside the 20 s grace period.
  for (Connection& connection : connections) connection.opened = now - 5 * kSecond;
  EXPECT_TRUE(manager.plan_trim(views(connections), now).empty());
}

TEST(ConnManager, ProtectedPeersSurvive) {
  ConnManager manager(ConnManagerConfig::with_watermarks(0, 2));
  const auto connections = make_connections(5);
  for (const Connection& connection : connections) manager.protect(connection.remote);
  EXPECT_TRUE(manager.plan_trim(views(connections), 1000 * kSecond).empty());
  manager.unprotect(connections[0].remote);
  const auto plan = manager.plan_trim(views(connections), 1000 * kSecond);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], connections[0].id);
}

TEST(ConnManager, LowTagValuesTrimFirst) {
  ConnManager manager(ConnManagerConfig::with_watermarks(2, 4));
  const auto connections = make_connections(6);
  // Give the first four connections high tags; the last two default to 0.
  for (std::size_t i = 0; i < 4; ++i) manager.set_tag(connections[i].remote, 100);
  const auto plan = manager.plan_trim(views(connections), 1000 * kSecond);
  ASSERT_EQ(plan.size(), 4u);
  // The two untagged close first.
  EXPECT_TRUE(std::find(plan.begin(), plan.end(), connections[4].id) != plan.end());
  EXPECT_TRUE(std::find(plan.begin(), plan.end(), connections[5].id) != plan.end());
}

TEST(ConnManager, EqualTagVictimsArePseudoRandomButDeterministic) {
  ConnManager manager(ConnManagerConfig::with_watermarks(3, 4));
  const auto connections = make_connections(8);
  // Same instant -> same victims (determinism, DESIGN.md §5).
  const auto plan_a = manager.plan_trim(views(connections), 1000 * kSecond);
  const auto plan_b = manager.plan_trim(views(connections), 1000 * kSecond);
  ASSERT_EQ(plan_a.size(), 5u);
  EXPECT_EQ(plan_a, plan_b);
  // Different trim instants shuffle the equal-tag victim order (go-libp2p's
  // arbitrary in-segment order), giving lifetimes their geometric tail.
  std::set<std::vector<ConnectionId>> distinct_plans;
  for (int tick = 0; tick < 16; ++tick) {
    distinct_plans.insert(
        manager.plan_trim(views(connections), (1000 + tick) * kSecond));
  }
  EXPECT_GT(distinct_plans.size(), 1u);
}

TEST(ConnManager, TagLifecycle) {
  ConnManager manager(ConnManagerConfig{});
  const PeerId peer = PeerId::from_seed(1);
  EXPECT_EQ(manager.tag(peer), 0);
  manager.set_tag(peer, 42);
  EXPECT_EQ(manager.tag(peer), 42);
  manager.clear_tag(peer);
  EXPECT_EQ(manager.tag(peer), 0);
}

TEST(ConnManager, GoIpfsDefaults) {
  const auto config = ConnManagerConfig::go_ipfs_default();
  EXPECT_EQ(config.low_water, 600);
  EXPECT_EQ(config.high_water, 900);
  EXPECT_EQ(config.grace_period, 20 * kSecond);
}

TEST(ConnManager, ZeroHighWaterDisablesTrimming) {
  ConnManager manager(ConnManagerConfig::with_watermarks(0, 0));
  const auto connections = make_connections(10);
  EXPECT_TRUE(manager.plan_trim(views(connections), 1000 * kSecond).empty());
}

/// Tripwire for the comment in plan_trim: the salted hash alone is not a
/// total order, because mix64(id, now) is not injective.  Equal-tag ties
/// with equal salts exist at realistic table sizes, so victim order there
/// falls to std::sort over the snapshot order.  If this ever fails, the
/// comparator became a total order and the tie caveat can go.
TEST(ConnManager, SaltTiesExist) {
  const auto now = static_cast<std::uint64_t>(10 * kSecond);
  std::unordered_set<std::uint64_t> salts;
  bool tie_found = false;
  for (ConnectionId id = 1; id <= 200'000 && !tie_found; ++id) {
    tie_found = !salts.insert(common::mix64(id, now)).second;
  }
  EXPECT_TRUE(tie_found);
}

/// Property sweep: after applying the plan, the open count is LowWater
/// whenever enough non-grace candidates exist.
class TrimSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TrimSweep, PlanRestoresLowWater) {
  const auto [low, high, open_count] = GetParam();
  ConnManager manager(ConnManagerConfig::with_watermarks(low, high));
  const auto connections = make_connections(static_cast<std::size_t>(open_count));
  const auto plan = manager.plan_trim(views(connections), 1000 * kSecond);
  if (open_count <= high) {
    EXPECT_TRUE(plan.empty());
  } else {
    EXPECT_EQ(static_cast<int>(connections.size() - plan.size()), low);
  }
  // A plan never closes the same connection twice.
  std::set<ConnectionId> unique(plan.begin(), plan.end());
  EXPECT_EQ(unique.size(), plan.size());
}

INSTANTIATE_TEST_SUITE_P(
    Watermarks, TrimSweep,
    ::testing::Values(std::make_tuple(5, 10, 8), std::make_tuple(5, 10, 11),
                      std::make_tuple(5, 10, 50), std::make_tuple(600, 900, 901),
                      std::make_tuple(0, 3, 10), std::make_tuple(2, 2, 3),
                      std::make_tuple(1, 4, 4)));

}  // namespace
}  // namespace ipfs::p2p
