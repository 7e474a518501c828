#include "common/stats.hpp"

#include <algorithm>

namespace ipfs::common {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const double fraction = position - static_cast<double>(lower);
  if (lower + 1 >= samples.size()) return samples.back();
  return samples[lower] * (1.0 - fraction) + samples[lower + 1] * fraction;
}

Cdf::Cdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::fraction_at_most(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

void MinMaxBand::add(std::size_t low_candidate, std::size_t high_candidate) noexcept {
  if (count_ == 0) {
    low_ = low_candidate;
    high_ = high_candidate;
  } else {
    low_ = std::min(low_, low_candidate);
    high_ = std::max(high_, high_candidate);
  }
  ++count_;
}

void CountedHistogram::add(const std::string& key, std::uint64_t weight) {
  counts_[key] += weight;
  total_ += weight;
}

std::vector<std::pair<std::string, std::uint64_t>> CountedHistogram::top_with_other(
    std::uint64_t group_threshold) const {
  std::vector<std::pair<std::string, std::uint64_t>> rows;
  std::uint64_t other = 0;
  for (const auto& [key, count] : counts_) {
    if (count <= group_threshold) {
      other += count;
    } else {
      rows.emplace_back(key, count);
    }
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (other > 0) rows.emplace_back("other", other);
  return rows;
}

namespace {
std::string with_thousands_impl(std::uint64_t magnitude, bool negative) {
  std::string digits = std::to_string(magnitude);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  const std::size_t first_group = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first_group) % 3 == 0 && i >= first_group) out.push_back('\'');
    out.push_back(digits[i]);
  }
  return negative ? "-" + out : out;
}
}  // namespace

std::string with_thousands(std::uint64_t value) {
  return with_thousands_impl(value, false);
}

std::string with_thousands(std::int64_t value) {
  const bool negative = value < 0;
  const auto magnitude =
      negative ? static_cast<std::uint64_t>(-(value + 1)) + 1 : static_cast<std::uint64_t>(value);
  return with_thousands_impl(magnitude, negative);
}

}  // namespace ipfs::common
