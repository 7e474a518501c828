#include "dht/record_store.hpp"

#include <gtest/gtest.h>

namespace ipfs::dht {
namespace {

using common::kHour;

TEST(RecordStore, PutAndGet) {
  RecordStore store;
  const RecordKey key = RecordKey::from_seed(1);
  const p2p::PeerId provider = p2p::PeerId::from_seed(2);
  store.put(key, provider, 0);
  EXPECT_TRUE(store.has_provider(key, 1000));
  EXPECT_EQ(store.key_count(), 1u);
  EXPECT_EQ(store.record_count(), 1u);
}

TEST(RecordStore, GetUnknownKeyIsEmpty) {
  RecordStore store;
  EXPECT_FALSE(store.has_provider(RecordKey::from_seed(1), 0));
}

TEST(RecordStore, RecordsExpire) {
  RecordStore store;
  const RecordKey key = RecordKey::from_seed(1);
  store.put(key, p2p::PeerId::from_seed(2), 0, 10 * kHour);
  EXPECT_TRUE(store.has_provider(key, 9 * kHour));
  EXPECT_FALSE(store.has_provider(key, 10 * kHour));
  // One live provider among expired ones is enough.
  store.put(key, p2p::PeerId::from_seed(3), 9 * kHour, 10 * kHour);
  EXPECT_TRUE(store.has_provider(key, 12 * kHour));
}

TEST(RecordStore, ReannounceExtendsExpiry) {
  RecordStore store;
  const RecordKey key = RecordKey::from_seed(1);
  const p2p::PeerId provider = p2p::PeerId::from_seed(2);
  store.put(key, provider, 0, 10 * kHour);
  store.put(key, provider, 8 * kHour, 10 * kHour);
  EXPECT_TRUE(store.has_provider(key, 15 * kHour));
  EXPECT_EQ(store.record_count(), 1u);  // same provider, not duplicated
}

TEST(RecordStore, MultipleProvidersPerKey) {
  RecordStore store;
  const RecordKey key = RecordKey::from_seed(1);
  store.put(key, p2p::PeerId::from_seed(2), 0);
  store.put(key, p2p::PeerId::from_seed(3), 0);
  EXPECT_TRUE(store.has_provider(key, 1));
  EXPECT_EQ(store.key_count(), 1u);
  EXPECT_EQ(store.record_count(), 2u);
}

TEST(RecordStore, SweepRemovesExpired) {
  RecordStore store;
  for (int i = 0; i < 10; ++i) {
    store.put(RecordKey::from_seed(static_cast<std::uint64_t>(i)),
              p2p::PeerId::from_seed(100), 0, (i % 2 == 0) ? 1 * kHour : 100 * kHour);
  }
  EXPECT_EQ(store.sweep(50 * kHour), 5u);
  EXPECT_EQ(store.key_count(), 5u);
  EXPECT_EQ(store.record_count(), 5u);
}

TEST(RecordStore, SweepUnderRepublishLoadStaysBounded) {
  // Satellite for the content workload: providers re-announce on a 12 h
  // cycle against a 24 h TTL while a scheduled sweep runs every pass.
  // Live records survive every sweep, lapsed providers decay out, and the
  // store never grows beyond (keys x providers).
  RecordStore store;
  constexpr int kKeys = 16;
  constexpr int kProviders = 8;
  constexpr common::SimDuration kTtl = 24 * kHour;
  constexpr common::SimDuration kCycle = 12 * kHour;
  for (int cycle = 0; cycle < 9; ++cycle) {
    const common::SimTime now = cycle * kCycle;
    for (int k = 0; k < kKeys; ++k) {
      for (int p = 0; p < kProviders; ++p) {
        // Provider p stops republishing after cycle p (staggered churn).
        if (cycle > p) continue;
        store.put(RecordKey::from_seed(static_cast<std::uint64_t>(k)),
                  p2p::PeerId::from_seed(100 + static_cast<std::uint64_t>(p)),
                  now, kTtl);
      }
    }
    store.sweep(now);
    EXPECT_LE(store.record_count(),
              static_cast<std::size_t>(kKeys * kProviders));
    EXPECT_LE(store.key_count(), static_cast<std::size_t>(kKeys));
  }
  // Just before hour 108 every provider has lapsed except the longest
  // lived one (p=7, last announce at 7*12h=84h, expires at exactly 108h):
  // one live record per key.
  const common::SimTime end = 9 * kCycle - kHour;
  store.sweep(end);
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(
        store.has_provider(RecordKey::from_seed(static_cast<std::uint64_t>(k)), end))
        << "key " << k;
  }
  EXPECT_EQ(store.record_count(), static_cast<std::size_t>(kKeys));
  // One final sweep past every expiry empties the store completely.
  EXPECT_EQ(store.sweep(20 * kCycle), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(store.key_count(), 0u);
  EXPECT_EQ(store.record_count(), 0u);
}

TEST(RecordStore, DefaultTtlIsOneDay) {
  RecordStore store;
  const RecordKey key = RecordKey::from_seed(1);
  store.put(key, p2p::PeerId::from_seed(2), 0);
  EXPECT_TRUE(store.has_provider(key, 23 * kHour));
  EXPECT_FALSE(store.has_provider(key, 25 * kHour));
}

}  // namespace
}  // namespace ipfs::dht
