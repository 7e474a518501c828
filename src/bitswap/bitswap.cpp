#include "bitswap/bitswap.hpp"

#include "p2p/protocols.hpp"

namespace ipfs::bitswap {

void BitswapEngine::want_block(const p2p::PeerId& from, const Cid& cid,
                               std::function<void(const Cid&)> on_block) {
  wanted_[cid].push_back({from, std::move(on_block)});
  BitswapMessage message;
  message.wants.push_back({cid, /*cancel=*/false, /*want_have_only=*/false});
  send(from, std::move(message));
}

void BitswapEngine::cancel_wants(const p2p::PeerId& peer) {
  // order-free: each CID's wants are filtered on their own.
  wanted_.erase_if([&peer](auto& entry) {
    std::erase_if(entry.second,
                  [&peer](const PendingWant& want) { return want.peer == peer; });
    return entry.second.empty();
  });
}

bool BitswapEngine::handle_message(const p2p::PeerId& from,
                                   const net::Message& envelope) {
  if (!p2p::protocols::is_bitswap(envelope.protocol)) return false;
  const auto* message = std::any_cast<BitswapMessage>(&envelope.body);
  if (message == nullptr) return true;

  // Serve wants we can satisfy; answer want-have probes either way.
  BitswapMessage reply;
  for (const WantEntry& want : message->wants) {
    if (want.cancel) continue;
    if (store_.contains(want.cid)) {
      if (want.want_have_only) {
        reply.have.push_back(want.cid);
      } else {
        reply.blocks.push_back(want.cid);
      }
    } else {
      reply.dont_have.push_back(want.cid);
    }
  }

  // Accept blocks we asked for.
  for (const Cid& block : message->blocks) {
    const auto it = wanted_.find(block);
    if (it == wanted_.end()) continue;  // unsolicited block: drop
    store_.insert(block);
    auto pending = std::move(it->second);
    wanted_.erase(it);
    for (PendingWant& want : pending) {
      if (want.callback) want.callback(block);
    }
  }
  if (!reply.blocks.empty() || !reply.have.empty() || !reply.dont_have.empty()) {
    send(from, std::move(reply));
  }
  return true;
}

void BitswapEngine::send(const p2p::PeerId& to, BitswapMessage message) {
  net::Message envelope;
  envelope.protocol = p2p::protocols::kBitswap120;
  envelope.body = std::move(message);
  network_.send(self_, to, std::move(envelope));
}

}  // namespace ipfs::bitswap
