// Deterministic random number generation for the simulator.
//
// All randomness in the library flows from a single 64-bit seed through a
// tree of `Rng` instances (see DESIGN.md §5).  The generator is
// xoshiro256**, seeded via splitmix64, both public-domain algorithms by
// Blackman & Vigna.  We deliberately do not use <random> engines for the
// core generator so that results are bit-identical across standard library
// implementations; <random>-style distributions are re-implemented here in
// a portable way.
#pragma once

#include <cstdint>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace ipfs::common {

/// splitmix64 step; used for seeding and for cheap hash mixing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mix two 64-bit values into one (for deriving child seeds).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// Satisfies std::uniform_random_bit_generator, so it can also be used with
/// standard algorithms where portability of the *distribution* does not
/// matter (e.g. std::shuffle in tests).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xda3e39cb94b95bdbULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derive an independent child generator; `label` keeps sibling children
  /// decorrelated even when created in different orders.
  [[nodiscard]] Rng child(std::uint64_t label) noexcept {
    return Rng(mix64((*this)(), label));
  }

  /// Uniform integer in [0, bound), bound > 0.  Lemire's method without the
  /// rejection refinement is fine for simulation purposes.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t bound) noexcept {
    // 128-bit multiply-shift maps the 64-bit output to [0, bound).
    const unsigned __int128 product =
        static_cast<unsigned __int128>((*this)()) * static_cast<unsigned __int128>(bound);
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_u64(span));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with the given mean (= 1/rate).
  [[nodiscard]] double exponential(double mean) noexcept {
    double u = uniform();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// Log-normal parameterised by the underlying normal's mu/sigma.
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept {
    return std::exp(mu + sigma * normal());
  }

  /// Standard normal via Box–Muller (single value; we keep it stateless and
  /// discard the pair's twin for determinism-by-construction).
  [[nodiscard]] double normal() noexcept {
    double u1 = uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Pareto (Lomax-shifted) with scale x_m > 0 and shape alpha > 0; heavy
  /// tails model peer session durations (see scenario/population_spec).
  [[nodiscard]] double pareto(double x_m, double alpha) noexcept {
    double u = uniform();
    if (u <= 0.0) u = 0x1.0p-53;
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Choose k distinct indices out of n (k <= n), in selection order.
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                                    std::size_t k) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

/// Stable 64-bit hash of a string (FNV-1a); used for deriving per-name seeds.
[[nodiscard]] std::uint64_t hash64(std::string_view text) noexcept;

}  // namespace ipfs::common
