// Small statistics toolkit used by the analysis layer: running moments,
// order statistics, empirical CDFs and counted histograms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ipfs::common {

/// Incrementally accumulated count, sum and mean plus extrema.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Median of a sample (averages the two middle elements for even sizes).
/// The input is copied; returns 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> samples);

/// q-quantile (q in [0,1]) by linear interpolation; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Empirical cumulative distribution function over a sample.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples);

  /// Fraction of samples <= x.
  [[nodiscard]] double fraction_at_most(double x) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] const std::vector<double>& sorted_samples() const noexcept {
    return sorted_;
  }

 private:
  std::vector<double> sorted_;
};

/// Accumulates the min/max band the paper plots in Fig. 2: the smallest
/// low-candidate and the largest high-candidate over a series of
/// observations (e.g. reached servers vs learned PIDs per crawl).
class MinMaxBand {
 public:
  /// Fold one observation into the band.  `low_candidate` competes for the
  /// band's minimum, `high_candidate` for its maximum; pass the same value
  /// twice to track a single series.
  void add(std::size_t low_candidate, std::size_t high_candidate) noexcept;

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t low() const noexcept { return count_ == 0 ? 0 : low_; }
  [[nodiscard]] std::size_t high() const noexcept { return count_ == 0 ? 0 : high_; }

  /// The (low, high) pair; (0, 0) when nothing was added.
  [[nodiscard]] std::pair<std::size_t, std::size_t> band() const noexcept {
    return {low(), high()};
  }

 private:
  std::size_t count_ = 0;
  std::size_t low_ = 0;
  std::size_t high_ = 0;
};

/// Counted histogram over string categories (agent versions, protocols).
class CountedHistogram {
 public:
  void add(const std::string& key, std::uint64_t weight = 1);

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counts() const noexcept {
    return counts_;
  }

  /// Rows sorted by descending count; categories with count <= threshold are
  /// merged into a synthetic "other" row, as in the paper's Fig. 3/4.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> top_with_other(
      std::uint64_t group_threshold) const;

 private:
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Format an integer with apostrophe thousands separators ("1'285'513"),
/// matching the paper's table style.
[[nodiscard]] std::string with_thousands(std::uint64_t value);
[[nodiscard]] std::string with_thousands(std::int64_t value);

}  // namespace ipfs::common
