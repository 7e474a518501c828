#include "common/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::common {
namespace {

/// The inverse of FlatMap's multiplier modulo 2^64 (Newton's iteration).
constexpr std::uint64_t kInverse = [] {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  std::uint64_t x = kGolden;
  for (int i = 0; i < 6; ++i) x *= 2 - kGolden * x;
  return x;
}();

/// Undoes the multiplier, so a key's top bits are its home slot: key
/// `h << 61 | n` lives at slot h of an 8-slot table.
struct HomeIsTopBits {
  std::size_t operator()(std::uint64_t key) const noexcept { return key * kInverse; }
};

/// Five hash values for all keys: long clusters that wrap the array.
struct FiveBuckets {
  std::size_t operator()(std::uint64_t key) const noexcept { return key % 5; }
};

std::uint64_t at_home(std::uint64_t home, std::uint64_t n) { return home << 61 | n; }

template <class Map, class Reference>
void expect_same(const Map& flat, const Reference& reference) {
  ASSERT_EQ(flat.size(), reference.size());
  std::size_t walked = 0;
  for (const auto& [key, value] : flat) {
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << key;
    EXPECT_EQ(value, it->second) << key;
    ++walked;
  }
  EXPECT_EQ(walked, reference.size());
  for (const auto& [key, value] : reference) {
    const auto it = flat.find(key);
    ASSERT_NE(it, flat.end()) << key;
    EXPECT_EQ(it->second, value) << key;
  }
}

TEST(FlatMap, EmptyAllocatesNothingAndFirstInsertTakesTwoSlots) {
  FlatMap<std::uint64_t, int> map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_FALSE(map.contains(7));
  EXPECT_EQ(map.find(7), map.end());
  EXPECT_EQ(map.erase(7), 0u);
  EXPECT_EQ(map.begin(), map.end());
  map[7] = 1;
  EXPECT_EQ(map.capacity(), 2u);
  map[8] = 2;
  EXPECT_EQ(map.capacity(), 4u);
  FlatMap<std::uint64_t, int> moved = std::move(map);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(map.size(), 0u);  // a moved-from table is empty
  EXPECT_EQ(map.capacity(), 0u);
  map[9] = 3;  // a moved-from table is usable again
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map[9], 3);
}

TEST(FlatMap, EraseShiftsAClusterBackAcrossTheWrapAround) {
  FlatMap<std::uint64_t, int, HomeIsTopBits> map;
  map.reserve(6);
  ASSERT_EQ(map.capacity(), 8u);
  const std::uint64_t a = at_home(7, 1);
  const std::uint64_t b = at_home(7, 2);
  const std::uint64_t c = at_home(0, 3);
  const std::uint64_t d = at_home(7, 4);
  // Slots 7, 0, 1, 2: b and d wrap past the end, c sits behind its home.
  map[a] = 1;
  map[b] = 2;
  map[c] = 3;
  map[d] = 4;
  EXPECT_EQ(map.erase(a), 1u);
  EXPECT_FALSE(map.contains(a));
  EXPECT_EQ(map[b], 2);
  EXPECT_EQ(map[c], 3);
  EXPECT_EQ(map[d], 4);
  EXPECT_EQ(map.size(), 3u);
  // The walk starts at slot 0: after the shift, c is first and b last.
  std::vector<std::uint64_t> order;
  for (const auto& [key, value] : map) order.push_back(key);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{c, d, b}));
  EXPECT_EQ(map.erase(c), 1u);
  EXPECT_EQ(map[b], 2);
  EXPECT_EQ(map[d], 4);
  EXPECT_EQ(map.capacity(), 8u);
}

TEST(FlatMap, EraseIfVisitsEachEntryOnceAcrossTheWrapAround) {
  FlatMap<std::uint64_t, int, HomeIsTopBits> map;
  map.reserve(6);
  for (std::uint64_t n = 0; n < 5; ++n) map[at_home(6, n)] = static_cast<int>(n);
  // Slots 6, 7, 0, 1, 2; erase every other entry, counting the visits.
  std::map<std::uint64_t, int> visits;
  const std::size_t erased = map.erase_if([&](auto& entry) {
    ++visits[entry.first];
    return entry.second % 2 == 0;
  });
  EXPECT_EQ(erased, 3u);
  EXPECT_EQ(visits.size(), 5u);
  for (const auto& [key, count] : visits) EXPECT_EQ(count, 1) << key;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map[at_home(6, 1)], 1);
  EXPECT_EQ(map[at_home(6, 3)], 3);
}

template <class Hash>
void differential(std::uint64_t seed) {
  Rng rng(seed);
  FlatMap<std::uint64_t, std::uint64_t, Hash> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.uniform_u64(300);
    const std::uint64_t op = rng.uniform_u64(100);
    if (op < 45) {
      const std::uint64_t value = rng();
      const bool inserted = flat.try_emplace(key, value).second;
      EXPECT_EQ(inserted, reference.try_emplace(key, value).second);
    } else if (op < 55) {
      flat[key] += 3;
      reference[key] += 3;
    } else if (op < 90) {
      ASSERT_EQ(flat.erase(key), reference.erase(key)) << "step " << step;
    } else if (op < 97) {
      const auto it = flat.find(key);
      const auto want = reference.find(key);
      ASSERT_EQ(it == flat.end(), want == reference.end()) << "step " << step;
      if (want != reference.end()) EXPECT_EQ(it->second, want->second);
    } else if (op < 99) {
      // Copies are independent: changing the copy leaves the source alone.
      auto copy = flat;
      auto reference_copy = reference;
      copy.erase_if([](auto& entry) { return entry.first % 3 == 0; });
      std::erase_if(reference_copy, [](const auto& entry) { return entry.first % 3 == 0; });
      copy[key] = 1;
      reference_copy[key] = 1;
      expect_same(copy, reference_copy);
      expect_same(flat, reference);
    } else {
      const std::uint64_t mod = 2 + rng.uniform_u64(5);
      const auto pred = [mod](const auto& entry) { return entry.second % mod == 0; };
      EXPECT_EQ(flat.erase_if(pred), std::erase_if(reference, pred));
    }
    ASSERT_EQ(flat.size(), reference.size()) << "step " << step;
    if (step % 500 == 0) expect_same(flat, reference);
  }
  expect_same(flat, reference);
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomOperations) {
  differential<std::hash<std::uint64_t>>(0xf1a7);
}

TEST(FlatMap, MatchesUnorderedMapWithFewHashValues) {
  differential<FiveBuckets>(0xc1a5);
}

TEST(FlatMap, GrowsThroughEveryCapacityKeepingEntries) {
  FlatMap<p2p::PeerId, std::uint32_t, p2p::PeerIdHash> map;
  std::size_t capacity = 0;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    map[p2p::PeerId::from_seed(i)] = i;
    if (map.capacity() != capacity) {
      capacity = map.capacity();
      EXPECT_LE(map.size() * 8, capacity * 7) << "load above 7/8 at " << capacity;
      for (std::uint32_t j = 0; j <= i; ++j) {
        ASSERT_EQ(map[p2p::PeerId::from_seed(j)], j);
      }
    }
  }
  EXPECT_EQ(map.size(), 5000u);
  EXPECT_EQ(map.capacity(), 8192u);
}

TEST(FlatMap, ErasedValuesAreDestroyed) {
  auto shared = std::make_shared<int>(1);
  FlatMap<std::uint64_t, std::shared_ptr<int>> map;
  for (std::uint64_t key = 0; key < 10; ++key) map[key] = shared;
  EXPECT_EQ(shared.use_count(), 11);
  for (std::uint64_t key = 0; key < 10; key += 2) map.erase(key);
  EXPECT_EQ(shared.use_count(), 6);
  map.erase_if([](auto&) { return true; });
  EXPECT_EQ(shared.use_count(), 1);
  EXPECT_TRUE(map.empty());
}

TEST(FlatSet, InsertReportsNewKeys) {
  FlatSet<std::string> set;
  EXPECT_TRUE(set.insert("a").second);
  EXPECT_FALSE(set.insert("a").second);
  EXPECT_TRUE(set.insert("b").second);
  EXPECT_TRUE(set.contains("a"));
  EXPECT_EQ(set.size(), 2u);
}

}  // namespace
}  // namespace ipfs::common
