// Bitswap protocol surface.
//
// The paper does not analyse Bitswap content exchange, but it *does* use
// the /ipfs/bitswap/* announcements to fingerprint peers (§IV-B: 7'498
// alleged go-ipfs v0.8.0 clients announcing /sbptp/1.0.0 instead of
// Bitswap unmasked as storm botnet nodes).  This engine implements the
// want-list / block message flow so examples and tests can exercise a real
// exchange, and so nodes have an authentic protocol announcement.
#pragma once

#include <functional>
#include <vector>

#include "common/flat_map.hpp"
#include "net/network.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::bitswap {

/// A content identifier (CID); same 256-bit space as peer ids.
using Cid = p2p::PeerId;

/// One want-list entry.
struct WantEntry {
  Cid cid;
  bool cancel = false;
  /// want-have (1.2.0 feature) vs want-block.
  bool want_have_only = false;
};

/// Bitswap message: wants plus blocks, as in the wire format.
struct BitswapMessage {
  std::vector<WantEntry> wants;
  std::vector<Cid> blocks;      ///< block payloads reduced to their CID
  std::vector<Cid> have;        ///< HAVE responses (1.2.0)
  std::vector<Cid> dont_have;   ///< DONT_HAVE responses (1.2.0)
};

/// Minimal but functional Bitswap engine for one node.
class BitswapEngine {
 public:
  BitswapEngine(net::Network& network, p2p::PeerId self)
      : network_(network), self_(self) {}

  /// Add a block to the local store (we can now serve it).
  void add_block(const Cid& cid) { store_.insert(cid); }
  /// Drop a block from the local store (replacement-cache eviction);
  /// true when it was present.
  bool remove_block(const Cid& cid) { return store_.erase(cid) > 0; }
  [[nodiscard]] bool has_block(const Cid& cid) const { return store_.contains(cid); }

  /// Request a block from a connected peer; `on_block` fires when it
  /// arrives (never fires if the peer lacks it or disconnects).
  void want_block(const p2p::PeerId& from, const Cid& cid,
                  std::function<void(const Cid&)> on_block);

  /// Drop every pending want addressed to `peer`.  Call when the session
  /// to a serving peer closes: without this, `wanted_` entries for
  /// never-answered wants pile up forever under churn.  The dropped
  /// callbacks are destroyed without firing.
  void cancel_wants(const p2p::PeerId& peer);

  /// Handle an inbound /ipfs/bitswap message; true when consumed.
  bool handle_message(const p2p::PeerId& from, const net::Message& message);

  [[nodiscard]] std::size_t pending_wants() const noexcept { return wanted_.size(); }

 private:
  /// One outstanding `want_block`, remembered with the peer it was sent
  /// to so disconnects can cancel exactly their own wants.
  struct PendingWant {
    p2p::PeerId peer;
    std::function<void(const Cid&)> callback;
  };

  void send(const p2p::PeerId& to, BitswapMessage message);

  net::Network& network_;
  p2p::PeerId self_;
  common::FlatSet<Cid, p2p::PeerIdHash> store_;
  common::FlatMap<Cid, std::vector<PendingWant>, p2p::PeerIdHash> wanted_;
};

}  // namespace ipfs::bitswap
