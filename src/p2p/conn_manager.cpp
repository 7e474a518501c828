#include "p2p/conn_manager.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace ipfs::p2p {

int ConnManager::tag(const PeerId& peer) const {
  const auto it = tags_.find(peer);
  return it == tags_.end() ? 0 : it->second;
}

std::vector<ConnectionId> ConnManager::plan_trim(
    const std::vector<const Connection*>& open, common::SimTime now) const {
  std::vector<ConnectionId> to_close;
  if (config_.high_water <= 0) return to_close;
  if (open.size() <= static_cast<std::size_t>(config_.high_water)) return to_close;

  // Each candidate's sort key is computed once: the salted hash would
  // otherwise cost two mix64 calls per comparison.
  struct Candidate {
    int tag_value;
    std::uint64_t salt;
    ConnectionId id;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(open.size());
  for (const Connection* connection : open) {
    if (now - connection->opened < config_.grace_period) continue;
    if (protected_.contains(connection->remote)) continue;
    candidates.push_back({tag(connection->remote),
                          common::mix64(connection->id, static_cast<std::uint64_t>(now)),
                          connection->id});
  }

  const std::size_t target = static_cast<std::size_t>(std::max(config_.low_water, 0));
  if (open.size() <= target) return to_close;
  std::size_t excess = open.size() - target;

  // Among equal tags go-libp2p's victim order is effectively arbitrary
  // (map iteration).  A salted hash reproduces that: each trim pass culls a
  // pseudo-random subset, which gives connection lifetimes their geometric
  // tail (paper §IV-A's 73 s median with a 196 s mean).
  //
  // (tag, salt) is not a total order: mix64(id, now) is not injective, and
  // distinct ids do share a salt at one instant (ConnManager.SaltTiesExist).
  // Such ties fall to std::sort acting on the caller's snapshot order, so
  // the pinned outputs depend on this being a full std::sort over `open`'s
  // order.  nth_element, partial_sort or a reordered snapshot would pick
  // different victims; an id tiebreak would too, and so moves pinned bytes.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.tag_value != b.tag_value) return a.tag_value < b.tag_value;
              return a.salt < b.salt;
            });

  for (const Candidate& candidate : candidates) {
    if (excess == 0) break;
    to_close.push_back(candidate.id);
    --excess;
  }
  return to_close;
}

}  // namespace ipfs::p2p
