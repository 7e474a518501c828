#include "common/rng.hpp"

#include <numeric>

namespace ipfs::common {

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) noexcept {
  if (k > n) k = n;
  // Floyd's algorithm: O(k) expected draws, no O(n) scratch when k << n.
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = static_cast<std::size_t>(uniform_u64(j + 1));
    bool seen = false;
    for (std::size_t c : chosen) {
      if (c == t) {
        seen = true;
        break;
      }
    }
    chosen.push_back(seen ? j : t);
  }
  return chosen;
}

std::uint64_t hash64(std::string_view text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace ipfs::common
