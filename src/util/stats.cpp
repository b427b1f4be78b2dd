#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ddos::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double pos = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double pearson(std::span<const double> xs, std::span<const double> ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  const double mx = mean(xs.subspan(0, n));
  const double my = mean(ys.subspan(0, n));
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> r(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[idx[j + 1]] == xs[idx[i]]) ++j;
    // Average rank for the tie group [i, j] (1-based ranks).
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) r[idx[k]] = avg;
    i = j + 1;
  }
  return r;
}

double spearman(std::span<const double> xs, std::span<const double> ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  const auto rx = ranks(xs.subspan(0, n));
  const auto ry = ranks(ys.subspan(0, n));
  return pearson(rx, ry);
}

double min_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

Ecdf::Ecdf(std::span<const double> xs) : sorted_(xs.begin(), xs.end()) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::at(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double q) const {
  if (sorted_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size())));
  return sorted_[idx == 0 ? 0 : idx - 1];
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - m_;
  m_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - m_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.m_ - m_;
  const double nt = na + nb;
  m_ = m_ + delta * (nb / nt);
  m2_ = m2_ + other.m2_ + delta * delta * (na * nb / nt);
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

}  // namespace ddos::util
