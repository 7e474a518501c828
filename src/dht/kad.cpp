#include "dht/kad.hpp"

#include <algorithm>

#include "p2p/protocols.hpp"

namespace ipfs::dht {

KadEngine::KadEngine(sim::Simulation& simulation, net::Network& network, PeerId self,
                     Mode mode)
    : simulation_(simulation), network_(network), self_(self), mode_(mode),
      table_(self) {}

void KadEngine::observe_peer(const PeerId& peer) {
  table_.add(peer, simulation_.now());
}

void KadEngine::forget_peer(const PeerId& peer) { table_.remove(peer); }

bool KadEngine::handle_message(const PeerId& from, const net::Message& message) {
  if (message.protocol != p2p::protocols::kKad) return false;
  if (const auto* request = std::any_cast<FindNodeRequest>(&message.body)) {
    if (!is_server()) return true;  // clients do not answer routing queries
    ++queries_served_;
    FindNodeResponse response;
    response.request_id = request->request_id;
    response.closer_peers = table_.closest(request->target, kReplication);
    net::Message reply;
    reply.protocol = p2p::protocols::kKad;
    reply.body = std::move(response);
    network_.send(self_, from, std::move(reply));
    // Querying peers are useful contacts; servers learn them too (the
    // requester may be a server — our caller cannot know yet, so Kademlia
    // optimistically inserts and evicts on failure).
    table_.add(from, simulation_.now());
    return true;
  }
  if (const auto* response = std::any_cast<FindNodeResponse>(&message.body)) {
    const auto it = pending_.find(response->request_id);
    if (it == pending_.end()) return true;  // late or duplicate reply
    const auto [lookup_id, peer] = it->second;
    pending_.erase(it);
    if (peer == from) on_response(lookup_id, from, *response);
    return true;
  }
  return false;
}

void KadEngine::lookup(const PeerId& target, std::function<void(LookupResult)> done) {
  const std::uint64_t lookup_id = next_lookup_id_++;
  LookupState state;
  state.target = target;
  state.done = std::move(done);
  state.frontier = table_.closest(target, kReplication);  // ascending distance
  state.in_frontier.insert(state.frontier.begin(), state.frontier.end());
  lookups_.emplace(lookup_id, std::move(state));
  advance_lookup(lookup_id);
}

void KadEngine::send_find_node(std::uint64_t lookup_id, const PeerId& to) {
  const std::uint64_t request_id = next_request_id_++;
  pending_.emplace(request_id, std::make_pair(lookup_id, to));
  FindNodeRequest request;
  request.target = lookups_.at(lookup_id).target;
  request.request_id = request_id;
  net::Message message;
  message.protocol = p2p::protocols::kKad;
  message.body = request;

  // Dial-then-query when not yet connected; the short-lived query
  // connections this creates are precisely the churn signature the paper
  // attributes to crawlers and DHT traffic (§IV-A).
  if (network_.connected(self_, to)) {
    network_.send(self_, to, std::move(message));
  } else {
    network_.dial(self_, to, [this, to, message = std::move(message)](bool ok) mutable {
      if (ok) network_.send(self_, to, std::move(message));
    });
  }

  // Timeout: treat as failure, drop the peer from the table.
  simulation_.schedule_after(kRequestTimeout, [this, request_id] {
    const auto it = pending_.find(request_id);
    if (it == pending_.end()) return;
    const auto [timed_out_lookup, peer] = it->second;
    pending_.erase(it);
    table_.remove(peer);
    const auto lookup_it = lookups_.find(timed_out_lookup);
    if (lookup_it == lookups_.end()) return;
    LookupState& state = lookup_it->second;
    if (state.finished) return;
    --state.in_flight;
    advance_lookup(timed_out_lookup);
  });
}

void KadEngine::advance_lookup(std::uint64_t lookup_id) {
  const auto it = lookups_.find(lookup_id);
  if (it == lookups_.end()) return;
  LookupState& state = it->second;
  if (state.finished) return;

  // Query up to alpha closest uncontacted candidates (the frontier is
  // maintained in ascending-distance order, so iteration order is rank).
  std::size_t started = 0;
  for (const PeerId& candidate : state.frontier) {
    if (state.in_flight >= kAlpha) break;
    if (state.contacted.contains(candidate)) continue;
    state.contacted.insert(candidate);
    ++state.in_flight;
    ++state.queried;
    ++started;
    send_find_node(lookup_id, candidate);
  }

  if (state.in_flight == 0 && started == 0) {
    finish_lookup(lookup_id, !state.frontier.empty());
  }
}

void KadEngine::on_response(std::uint64_t lookup_id, const PeerId& from,
                            const FindNodeResponse& response) {
  const auto it = lookups_.find(lookup_id);
  if (it == lookups_.end()) return;
  LookupState& state = it->second;
  if (state.finished) return;
  --state.in_flight;
  table_.add(from, simulation_.now());
  for (const PeerId& peer : response.closer_peers) {
    if (peer == self_) continue;
    if (!state.in_frontier.insert(peer).second) continue;  // already known
    // Sorted insertion preserves the ascending-distance invariant; distinct
    // peers never tie under the XOR metric, so the resulting order is the
    // same one a full re-sort used to produce.
    const auto at = std::lower_bound(
        state.frontier.begin(), state.frontier.end(), peer,
        [&](const PeerId& a, const PeerId& b) {
          return closer_to(state.target, a, b);
        });
    state.frontier.insert(at, peer);
  }
  advance_lookup(lookup_id);
}

void KadEngine::finish_lookup(std::uint64_t lookup_id, bool converged) {
  const auto it = lookups_.find(lookup_id);
  if (it == lookups_.end()) return;
  LookupState& state = it->second;
  state.finished = true;
  LookupResult result;
  result.closest = state.frontier;  // already ascending by distance
  if (result.closest.size() > kReplication) result.closest.resize(kReplication);
  result.queried_count = state.queried;
  result.converged = converged;
  auto done = std::move(state.done);
  lookups_.erase(it);
  if (done) done(std::move(result));
}

void KadEngine::refresh() {
  // Self-lookup keeps the neighbourhood fresh…
  lookup(self_, {});
  // …and one random target per populated prefix keeps distant buckets warm.
  const std::size_t deepest = table_.deepest_bucket();
  for (std::size_t prefix = 0; prefix <= deepest && prefix < 16; ++prefix) {
    PeerId random_target = PeerId::from_seed(
        common::mix64(self_.prefix64(), simulation_.now() + static_cast<long>(prefix)));
    lookup(random_target, {});
  }
}

}  // namespace ipfs::dht
