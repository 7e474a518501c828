#include "net/ip_allocator.hpp"

namespace ipfs::net {

namespace {

/// True for ranges we must not hand out as "public" addresses (so printed
/// multiaddresses look plausible and never collide with reserved space).
bool is_reserved_v4(std::uint32_t address) {
  const auto octet1 = (address >> 24) & 0xff;
  if (octet1 == 0 || octet1 == 10 || octet1 == 127 || octet1 >= 224) return true;
  if (octet1 == 172 && ((address >> 16) & 0xf0) == 16) return true;
  if (octet1 == 192 && ((address >> 16) & 0xff) == 168) return true;
  if (octet1 == 169 && ((address >> 16) & 0xff) == 254) return true;
  return false;
}

}  // namespace

p2p::IpAddress IpAllocator::unique_v4() {
  for (;;) {
    const auto candidate = static_cast<std::uint32_t>(rng_());
    if (is_reserved_v4(candidate)) continue;
    const auto ip = p2p::IpAddress::v4(candidate);
    if (used_.insert(ip).second) return ip;
  }
}

p2p::IpAddress IpAllocator::shared_v4(const std::string& pool) {
  const auto it = pools_.find(pool);
  if (it != pools_.end()) return it->second;
  const auto ip = unique_v4();
  pools_.emplace(pool, ip);
  return ip;
}

}  // namespace ipfs::net
