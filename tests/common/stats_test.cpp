#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace ipfs::common {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 0.0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(-3.5);
  EXPECT_DOUBLE_EQ(stats.mean(), -3.5);
  EXPECT_DOUBLE_EQ(stats.min(), -3.5);
  EXPECT_DOUBLE_EQ(stats.max(), -3.5);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({42.0}), 42.0);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> data{0.0, 10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(data, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(data, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(data, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(quantile(data, 0.25), 10.0);
  EXPECT_DOUBLE_EQ(quantile(data, 0.125), 5.0);
}

TEST(Cdf, FractionAtMost) {
  Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(100.0), 1.0);
}

TEST(Cdf, EmptyIsSafe) {
  Cdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1.0), 0.0);
}

TEST(CountedHistogram, CountsAndTotals) {
  CountedHistogram histogram;
  histogram.add("a");
  histogram.add("a");
  histogram.add("b", 5);
  EXPECT_EQ(histogram.counts().at("a"), 2u);
  EXPECT_EQ(histogram.counts().at("b"), 5u);
  EXPECT_FALSE(histogram.counts().contains("c"));
  EXPECT_EQ(histogram.total(), 7u);
  EXPECT_EQ(histogram.counts().size(), 2u);
}

TEST(CountedHistogram, TopWithOtherGroupsSmallCategories) {
  CountedHistogram histogram;
  histogram.add("big", 1000);
  histogram.add("mid", 200);
  histogram.add("tiny1", 3);
  histogram.add("tiny2", 2);
  const auto rows = histogram.top_with_other(100);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "big");
  EXPECT_EQ(rows[1].first, "mid");
  EXPECT_EQ(rows[2].first, "other");
  EXPECT_EQ(rows[2].second, 5u);
}

TEST(CountedHistogram, TopWithOtherNoGrouping) {
  CountedHistogram histogram;
  histogram.add("x", 10);
  const auto rows = histogram.top_with_other(0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, "x");
}

TEST(WithThousands, FormatsLikeThePaper) {
  EXPECT_EQ(with_thousands(std::uint64_t{0}), "0");
  EXPECT_EQ(with_thousands(std::uint64_t{999}), "999");
  EXPECT_EQ(with_thousands(std::uint64_t{1000}), "1'000");
  EXPECT_EQ(with_thousands(std::uint64_t{1285513}), "1'285'513");
  EXPECT_EQ(with_thousands(std::int64_t{-47516}), "-47'516");
}

}  // namespace
}  // namespace ipfs::common
