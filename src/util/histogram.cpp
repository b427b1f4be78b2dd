#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ddos::util {

LogHistogram::LogHistogram(double base, double decades_per_bin,
                           std::size_t bins)
    : base_(base), decades_(decades_per_bin), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("LogHistogram: bins == 0");
  if (base <= 0.0) throw std::invalid_argument("LogHistogram: base <= 0");
  if (decades_per_bin <= 0.0)
    throw std::invalid_argument("LogHistogram: decades_per_bin <= 0");
}

void LogHistogram::add(double x, std::uint64_t weight) {
  long idx = 0;
  if (x > 0.0) {
    idx = static_cast<long>(std::floor(std::log10(x / base_) / decades_));
  }
  idx = std::clamp(idx, 0L, static_cast<long>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double LogHistogram::bin_lo(std::size_t i) const {
  return base_ * std::pow(10.0, decades_ * static_cast<double>(i));
}

double LogHistogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double LogHistogram::fraction(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(i)) / static_cast<double>(total_);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (base_ != other.base_ || decades_ != other.decades_ ||
      counts_.size() != other.counts_.size()) {
    throw std::invalid_argument("LogHistogram::merge: shape mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double LogHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::min<std::uint64_t>(
      total_ - 1,
      static_cast<std::uint64_t>(q * static_cast<double>(total_)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum > rank) {
      const std::uint64_t into_bin = rank - (cum - counts_[i]);
      const double p = (static_cast<double>(into_bin) + 0.5) /
                       static_cast<double>(counts_[i]);
      return bin_lo(i) * std::pow(bin_hi(i) / bin_lo(i), p);
    }
  }
  return bin_hi(counts_.size() - 1);
}

void CategoryCounter::add(const std::string& key, std::uint64_t weight) {
  counts_[key] += weight;
  total_ += weight;
}

void CategoryCounter::merge(const CategoryCounter& other) {
  for (const auto& [key, n] : other.counts_) counts_[key] += n;
  total_ += other.total_;
}

std::uint64_t CategoryCounter::count(const std::string& key) const {
  const auto it = counts_.find(key);
  return it == counts_.end() ? 0 : it->second;
}

double CategoryCounter::fraction(const std::string& key) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(key)) / static_cast<double>(total_);
}

std::vector<std::pair<std::string, std::uint64_t>> CategoryCounter::top(
    std::size_t k) const {
  std::vector<std::pair<std::string, std::uint64_t>> all(counts_.begin(),
                                                         counts_.end());
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace ddos::util
