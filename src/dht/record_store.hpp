// Provider-record store: hydra-booster's shared "belly" (§III-B).
//
// Hydra heads store and serve DHT provider records from one common store;
// we model records as (key → providers with expiry).  The store is also
// used by go-ipfs server nodes for the records they are responsible for.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/sim_time.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::dht {

/// A content key in the DHT keyspace (same 256-bit space as peer ids).
using RecordKey = p2p::PeerId;

/// One provider announcement.
struct ProviderRecord {
  p2p::PeerId provider;
  common::SimTime expires = 0;
};

/// Key → provider set, with lazy expiry.
class RecordStore {
 public:
  /// go-ipfs default provider-record validity.
  static constexpr common::SimDuration kDefaultTtl = 24 * common::kHour;

  void put(const RecordKey& key, const p2p::PeerId& provider, common::SimTime now,
           common::SimDuration ttl = kDefaultTtl);

  /// Whether the key has an unexpired provider at `now`.
  [[nodiscard]] bool has_provider(const RecordKey& key, common::SimTime now) const;

  /// Drop expired entries; returns how many records were removed.
  std::size_t sweep(common::SimTime now);

  [[nodiscard]] std::size_t key_count() const noexcept { return records_.size(); }
  [[nodiscard]] std::size_t record_count() const noexcept { return record_count_; }

 private:
  std::unordered_map<RecordKey, std::vector<ProviderRecord>> records_;
  std::size_t record_count_ = 0;
};

}  // namespace ipfs::dht
