// Property tests for the session-churn samplers (DESIGN.md §10): the
// empirical mean/median of Weibull, lognormal and exponential session
// draws must track the analytic values across seeds, the empirical CDF
// must be monotone, and every draw must be a pure function of
// (node, session, seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.hpp"
#include "scenario/churn.hpp"

namespace ipfs::scenario {
namespace {

using common::kHour;
using common::kMinute;

/// Specs here override no category, so every draw through this category
/// comes from the spec's top-level distributions.
constexpr Category kTopLevel = Category::kNormalUser;

/// Draw `count` samples through the model's pure per-(node, session) API.
std::vector<double> draw_sessions(const ChurnModel& model, std::size_t count) {
  std::vector<double> samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    samples.push_back(static_cast<double>(
        model.session_length(static_cast<std::uint32_t>(i % 512),
                             static_cast<std::uint32_t>(i / 512), kTopLevel)));
  }
  return samples;
}

struct DistributionCase {
  const char* label;
  SessionDistribution distribution;
};

const DistributionCase kCases[] = {
    {"exponential-2h", SessionDistribution::exponential(7'200'000.0)},
    {"exponential-5min", SessionDistribution::exponential(300'000.0)},
    {"weibull-heavy", SessionDistribution::weibull(0.55, 7'200'000.0)},
    {"weibull-light", SessionDistribution::weibull(1.5, 3'600'000.0)},
    {"lognormal-wide", SessionDistribution::lognormal(3'600'000.0, 1.1)},
    {"lognormal-narrow", SessionDistribution::lognormal(600'000.0, 0.4)},
};

TEST(ChurnSamplers, EmpiricalMeanTracksAnalyticAcrossSeeds) {
  constexpr std::size_t kSamples = 40'000;
  for (const DistributionCase& test_case : kCases) {
    ChurnSpec spec;
    spec.session = test_case.distribution;
    const double analytic = test_case.distribution.analytic_mean();
    ASSERT_GT(analytic, 0.0) << test_case.label;
    for (const std::uint64_t seed : {11ULL, 2021ULL, 0xc402ULL}) {
      const ChurnModel model(spec, seed);
      common::RunningStats stats;
      for (const double sample : draw_sessions(model, kSamples)) stats.add(sample);
      // Relative tolerance sized for 40k samples of the heaviest tail in
      // the set (Weibull k=0.55 has a finite but large variance).
      EXPECT_NEAR(stats.mean() / analytic, 1.0, 0.08)
          << test_case.label << " seed=" << seed;
    }
  }
}

TEST(ChurnSamplers, EmpiricalMedianTracksAnalyticAcrossSeeds) {
  constexpr std::size_t kSamples = 40'000;
  for (const DistributionCase& test_case : kCases) {
    ChurnSpec spec;
    spec.session = test_case.distribution;
    const double analytic = test_case.distribution.analytic_median();
    ASSERT_GT(analytic, 0.0) << test_case.label;
    for (const std::uint64_t seed : {11ULL, 2021ULL, 0xc402ULL}) {
      const ChurnModel model(spec, seed);
      const double empirical = common::median(draw_sessions(model, kSamples));
      EXPECT_NEAR(empirical / analytic, 1.0, 0.05)
          << test_case.label << " seed=" << seed;
    }
  }
}

TEST(ChurnSamplers, EmpiricalCdfIsMonotoneAndProper) {
  for (const DistributionCase& test_case : kCases) {
    ChurnSpec spec;
    spec.session = test_case.distribution;
    const ChurnModel model(spec, 99);
    const common::Cdf cdf(draw_sessions(model, 10'000));
    double previous = 0.0;
    const double max_sample = cdf.sorted_samples().back();
    for (int i = 0; i <= 50; ++i) {
      const double x = max_sample * static_cast<double>(i) / 50.0;
      const double fraction = cdf.fraction_at_most(x);
      EXPECT_GE(fraction, previous) << test_case.label << " at x=" << x;
      EXPECT_GE(fraction, 0.0);
      EXPECT_LE(fraction, 1.0);
      previous = fraction;
    }
    EXPECT_EQ(cdf.fraction_at_most(max_sample), 1.0) << test_case.label;
    // Sessions are lengths: never negative.
    EXPECT_GE(cdf.sorted_samples().front(), 0.0) << test_case.label;
  }
}

TEST(ChurnSamplers, DrawsArePureFunctionsOfNodeSessionSeed) {
  ChurnSpec spec;
  spec.diurnal = DiurnalSpec{.amplitude = 0.6, .period = 24 * kHour, .phase = 0};
  const ChurnModel model(spec, 42);
  const ChurnModel twin(spec, 42);

  // Same (node, session, seed) => same value, regardless of call order or
  // model instance; different coordinates decorrelate.
  const auto a = model.session_length(7, 3, kTopLevel);
  (void)model.session_length(1000, 55, kTopLevel);  // interleaved calls must not matter
  (void)model.gap_length(7, 3, 5 * kHour, kTopLevel);
  EXPECT_EQ(model.session_length(7, 3, kTopLevel), a);
  EXPECT_EQ(twin.session_length(7, 3, kTopLevel), a);
  EXPECT_EQ(twin.gap_length(7, 3, 5 * kHour, kTopLevel),
            model.gap_length(7, 3, 5 * kHour, kTopLevel));
  EXPECT_NE(model.session_length(7, 4, kTopLevel), a);
  EXPECT_NE(model.session_length(8, 3, kTopLevel), a);

  const ChurnModel reseeded(spec, 43);
  EXPECT_NE(reseeded.session_length(7, 3, kTopLevel), a);

  // Session and gap streams are decorrelated even at equal coordinates.
  EXPECT_NE(model.gap_length(7, 3, 0, kTopLevel),
            model.session_length(7, 3, kTopLevel));
}

TEST(ChurnSamplers, SameSeedProducesSameTrace) {
  // A full lifecycle trace — sessions and gaps for many (node, session)
  // pairs — must be bit-identical across model instances with equal seeds.
  ChurnSpec spec;
  spec.session = SessionDistribution::weibull(0.7, 2 * kHour);
  spec.gap = SessionDistribution::lognormal(1 * kHour, 0.9);
  const ChurnModel a(spec, 0x7ace);
  const ChurnModel b(spec, 0x7ace);
  for (std::uint32_t node = 0; node < 64; ++node) {
    for (std::uint32_t session = 0; session < 8; ++session) {
      ASSERT_EQ(a.session_length(node, session, kTopLevel),
                b.session_length(node, session, kTopLevel));
      ASSERT_EQ(a.gap_length(node, session, node * kMinute, kTopLevel),
                b.gap_length(node, session, node * kMinute, kTopLevel));
      ASSERT_EQ(a.initially_online(node), b.initially_online(node));
      ASSERT_EQ(a.redraw_address(node, session), b.redraw_address(node, session));
    }
  }
}

TEST(ChurnModel, CategoryOverridesSelectTheirDistribution) {
  ChurnSpec spec;
  spec.session = SessionDistribution::exponential(1 * kHour);
  ChurnCategorySpec core;
  core.category = Category::kCoreServer;
  core.session = SessionDistribution::exponential(100 * kHour);
  core.gap = spec.gap;
  spec.categories = {core};
  const ChurnModel model(spec, 5);

  common::RunningStats defaults;
  common::RunningStats overridden;
  for (std::uint32_t i = 0; i < 4'000; ++i) {
    defaults.add(static_cast<double>(
        model.session_length(i, 0, Category::kNormalUser)));
    overridden.add(static_cast<double>(
        model.session_length(i, 0, Category::kCoreServer)));
  }
  // Two orders of magnitude apart in the spec; at least 20x in the sample.
  EXPECT_GT(overridden.mean(), 20.0 * defaults.mean());
}

TEST(ChurnModel, DiurnalModulationShortensGapsAtThePeak) {
  ChurnSpec spec;
  spec.gap = SessionDistribution::exponential(2 * kHour);
  spec.diurnal = DiurnalSpec{.amplitude = 0.8, .period = 24 * kHour,
                             .phase = 12 * kHour};
  const ChurnModel model(spec, 9);

  EXPECT_NEAR(model.rate_multiplier(12 * kHour), 1.8, 1e-9);
  EXPECT_NEAR(model.rate_multiplier(0), 0.2, 1e-9);
  EXPECT_NEAR(model.rate_multiplier(36 * kHour), 1.8, 1e-9);  // periodic

  common::RunningStats at_peak;
  common::RunningStats at_trough;
  for (std::uint32_t i = 0; i < 4'000; ++i) {
    at_peak.add(
        static_cast<double>(model.gap_length(i, 0, 12 * kHour, kTopLevel)));
    at_trough.add(static_cast<double>(model.gap_length(i, 0, 0, kTopLevel)));
  }
  // Rate ratio 1.8 / 0.2 = 9x; the same underlying draws are scaled, so
  // the sample ratio is exact up to integer truncation.
  EXPECT_GT(at_trough.mean(), 8.0 * at_peak.mean());
}

TEST(ChurnModel, InitialOnlineFractionTracksProbability) {
  for (const double p : {0.0, 0.25, 0.6, 1.0}) {
    ChurnSpec spec;
    spec.initial_online = p;
    const ChurnModel model(spec, 123);
    std::size_t online = 0;
    constexpr std::uint32_t kNodes = 20'000;
    for (std::uint32_t node = 0; node < kNodes; ++node) {
      if (model.initially_online(node)) ++online;
    }
    EXPECT_NEAR(static_cast<double>(online) / kNodes, p, 0.02) << "p=" << p;
  }
}

TEST(ChurnSpec, ValidateAcceptsDefaultsAndRejectsProgrammaticMistakes) {
  EXPECT_EQ(ChurnSpec::validate(ChurnSpec{}), std::nullopt);

  ChurnSpec bad;
  bad.session = SessionDistribution::weibull(0.0, 1000.0);
  ASSERT_TRUE(ChurnSpec::validate(bad).has_value());
  EXPECT_NE(ChurnSpec::validate(bad)->find("shape must be > 0"), std::string::npos);

  bad = ChurnSpec{};
  bad.gap = SessionDistribution::lognormal(-5.0, 1.0);
  ASSERT_TRUE(ChurnSpec::validate(bad).has_value());
  EXPECT_NE(ChurnSpec::validate(bad)->find("churn.gap"), std::string::npos);

  bad = ChurnSpec{};
  bad.initial_online = 1.5;
  EXPECT_NE(ChurnSpec::validate(bad), std::nullopt);

  bad = ChurnSpec{};
  bad.diurnal = DiurnalSpec{.amplitude = 1.0};
  EXPECT_NE(ChurnSpec::validate(bad), std::nullopt);

  bad = ChurnSpec{};
  ChurnCategorySpec duplicate;
  duplicate.category = Category::kCrawler;
  duplicate.session = bad.session;
  duplicate.gap = bad.gap;
  bad.categories = {duplicate, duplicate};
  ASSERT_TRUE(ChurnSpec::validate(bad).has_value());
  EXPECT_NE(ChurnSpec::validate(bad)->find("duplicate category override"),
            std::string::npos);
}

}  // namespace
}  // namespace ipfs::scenario
