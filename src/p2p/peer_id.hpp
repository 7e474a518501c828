// libp2p peer identities.
//
// In libp2p a PeerId is the multihash of the node's public key; peers that
// rotate their keypair get a fresh PID, which is the root cause of the
// PID-vs-peer ambiguity the paper studies (§V).  We model the identity as an
// opaque 256-bit value derived from a key seed; Kademlia XOR distance
// operates directly on these bits (as go-ipfs hashes PIDs into the keyspace).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace ipfs::common {
class Rng;
}

namespace ipfs::p2p {

/// A 256-bit peer identity.
class PeerId {
 public:
  static constexpr std::size_t kBits = 256;
  static constexpr std::size_t kWords = 4;

  constexpr PeerId() = default;

  /// Deterministically derive an identity from a key seed (stand-in for
  /// "generate a 2048-bit RSA key and hash it", §III-A).
  [[nodiscard]] static PeerId from_seed(std::uint64_t key_seed) noexcept;

  /// Fresh identity from the given generator.
  [[nodiscard]] static PeerId random(common::Rng& rng) noexcept;

  /// Identity whose most significant bits match `prefix_bits` bits of
  /// `prefix`; hydra-booster places head PIDs this way to spread heads
  /// across the keyspace (§III-B).
  [[nodiscard]] static PeerId with_prefix(std::uint64_t prefix, unsigned prefix_bits,
                                          common::Rng& rng) noexcept;

  [[nodiscard]] constexpr bool is_zero() const noexcept {
    return (words_[0] | words_[1] | words_[2] | words_[3]) == 0;
  }

  /// Bit i, counting from the most significant bit (bit 0 = MSB), as
  /// Kademlia bucket indexing does.
  [[nodiscard]] constexpr bool bit(std::size_t i) const noexcept {
    return ((words_[i / 64] >> (63 - (i % 64))) & 1ULL) != 0;
  }

  /// XOR of two identities (the Kademlia metric's raw form).
  [[nodiscard]] constexpr PeerId operator^(const PeerId& other) const noexcept {
    PeerId out;
    for (std::size_t i = 0; i < kWords; ++i) out.words_[i] = words_[i] ^ other.words_[i];
    return out;
  }

  /// Index of the highest set bit from the MSB, i.e. length of the common
  /// prefix with zero; 256 when the value is zero.
  [[nodiscard]] std::size_t leading_zero_bits() const noexcept;

  /// Word-wise, so equality inlines instead of calling memcmp.
  [[nodiscard]] constexpr bool operator==(const PeerId& other) const noexcept {
    return ((words_[0] ^ other.words_[0]) | (words_[1] ^ other.words_[1]) |
            (words_[2] ^ other.words_[2]) | (words_[3] ^ other.words_[3])) == 0;
  }
  [[nodiscard]] constexpr auto operator<=>(const PeerId&) const noexcept = default;

  /// Short printable form, e.g. "12D3KooWAb3Cd..." — a stable textual alias
  /// derived from the id bits (not a real base58 multihash, but unique).
  [[nodiscard]] std::string to_string() const;

  /// First 64 bits; used for hashing and as a stable display prefix.
  [[nodiscard]] constexpr std::uint64_t prefix64() const noexcept { return words_[0]; }

  [[nodiscard]] constexpr const std::array<std::uint64_t, kWords>& words()
      const noexcept {
    return words_;
  }

 private:
  std::array<std::uint64_t, kWords> words_{};
};

}  // namespace ipfs::p2p

template <>
struct std::hash<ipfs::p2p::PeerId> {
  std::size_t operator()(const ipfs::p2p::PeerId& id) const noexcept {
    return static_cast<std::size_t>(id.prefix64());
  }
};
