#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace ipfs::common {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ChildIsIndependentOfParentContinuation) {
  Rng parent(7);
  Rng child = parent.child(1);
  // The child must not replay the parent's stream.
  Rng parent_copy(7);
  (void)parent_copy();  // consume the value the child derivation consumed
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == parent_copy()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(4);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 58ULL, 1000003ULL}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.uniform_u64(bound), bound);
    }
  }
}

TEST(Rng, UniformU64CoversSmallRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_u64(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(6);
  bool saw_low = false;
  bool saw_high = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_low |= v == -3;
    saw_high |= v == 3;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(8);
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(50.0);
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 50.0, 1.0);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(9);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kSamples, 1.0, 0.03);
}

TEST(Rng, ParetoLowerBoundHolds) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(2.5, 1.2), 2.5);
  }
}

TEST(Rng, BernoulliFrequencyMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(14);
  for (int round = 0; round < 50; ++round) {
    const auto sample = rng.sample_without_replacement(100, 20);
    ASSERT_EQ(sample.size(), 20u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (const std::size_t s : sample) EXPECT_LT(s, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(15);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementClampsOversizedRequest) {
  Rng rng(16);
  const auto sample = rng.sample_without_replacement(5, 50);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(Hash64, StableAndDistinct) {
  EXPECT_EQ(hash64("go-ipfs"), hash64("go-ipfs"));
  EXPECT_NE(hash64("go-ipfs"), hash64("go-ipfs/"));
  EXPECT_NE(hash64(""), hash64("a"));
}

TEST(Mix64, OrderSensitive) {
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
  EXPECT_EQ(mix64(1, 2), mix64(1, 2));
}

}  // namespace
}  // namespace ipfs::common
