// The identify protocol (/ipfs/id/1.0.0).
//
// Identify is how the paper's measurement nodes learn everything in
// §IV-B: agent-version strings, supported protocols and multiaddresses all
// arrive via identify exchanges shortly after a connection opens.  (go-ipfs
// pushes later changes via /ipfs/id/push/1.0.0; the campaign engine draws
// those changes per peer instead.)  A peer whose connection dies before
// identify completes stays in the dataset with no version string — the
// paper's 3'059 "missing" agents.
#pragma once

#include <string>
#include <vector>

#include "p2p/multiaddr.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::node {

/// The payload both sides exchange after connecting (and push on change).
struct IdentifySnapshot {
  std::string agent;
  std::vector<std::string> protocols;
  p2p::Multiaddr listen_address;
};

}  // namespace ipfs::node
