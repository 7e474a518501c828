#include "dht/record_store.hpp"

#include <algorithm>

namespace ipfs::dht {

void RecordStore::put(const RecordKey& key, const p2p::PeerId& provider,
                      common::SimTime now, common::SimDuration ttl) {
  auto& providers = records_[key];
  for (ProviderRecord& record : providers) {
    if (record.provider == provider) {
      record.expires = now + ttl;
      return;
    }
  }
  providers.push_back({provider, now + ttl});
  ++record_count_;
}

std::vector<p2p::PeerId> RecordStore::get(const RecordKey& key,
                                          common::SimTime now) const {
  std::vector<p2p::PeerId> result;
  const auto it = records_.find(key);
  if (it == records_.end()) return result;
  for (const ProviderRecord& record : it->second) {
    if (record.expires > now) result.push_back(record.provider);
  }
  return result;
}

bool RecordStore::has_provider(const RecordKey& key, common::SimTime now) const {
  const auto it = records_.find(key);
  if (it == records_.end()) return false;
  return std::ranges::any_of(it->second,
                             [now](const ProviderRecord& r) { return r.expires > now; });
}

std::size_t RecordStore::sweep(common::SimTime now) {
  std::size_t removed = 0;
  // order-free: each key's expired records are dropped on their own.
  for (auto it = records_.begin(); it != records_.end();) {
    auto& providers = it->second;
    const auto new_end =
        std::remove_if(providers.begin(), providers.end(),
                       [now](const ProviderRecord& r) { return r.expires <= now; });
    removed += static_cast<std::size_t>(providers.end() - new_end);
    providers.erase(new_end, providers.end());
    if (providers.empty()) {
      it = records_.erase(it);
    } else {
      ++it;
    }
  }
  record_count_ -= removed;
  return removed;
}

}  // namespace ipfs::dht
