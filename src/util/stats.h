// Basic descriptive and correlation statistics used throughout the
// analysis pipeline (Impact_on_RTT aggregation, Fig. 9/10 correlations).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ddos::util {

/// Arithmetic mean; returns 0.0 for an empty range.
double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); 0.0 when n < 2.
double variance(std::span<const double> xs);

/// Sample standard deviation.
double stddev(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0,100]. Sorts a copy.
/// Returns 0.0 for an empty range.
double percentile(std::span<const double> xs, double p);

/// Median (50th percentile).
double median(std::span<const double> xs);

/// Pearson product-moment correlation of two equal-length series.
/// Returns 0.0 when either series is degenerate (n < 2 or zero variance).
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Spearman rank correlation (Pearson over average ranks, ties averaged).
double spearman(std::span<const double> xs, std::span<const double> ys);

/// Average ranks (1-based) with ties receiving the mean of their positions.
std::vector<double> ranks(std::span<const double> xs);

/// Minimum / maximum; 0.0 for empty ranges.
double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

/// Empirical CDF over a sample — figure-series helper (impact and
/// duration distributions are naturally read as CDFs).
class Ecdf {
 public:
  explicit Ecdf(std::span<const double> xs);

  std::size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  /// P(X <= x); 0.0 on an empty sample.
  double at(double x) const;
  /// Inverse: smallest sample value v with P(X <= v) >= q, q in (0, 1].
  double quantile(double q) const;

 private:
  std::vector<double> sorted_;
};

/// Streaming accumulator for mean / min / max / count without storing
/// samples. Used by the 5-minute NSSet aggregation where sample volume
/// is large (one entry per OpenINTEL query).
class RunningStats {
 public:
  /// The accumulator's complete internal state, exposed so persistence
  /// layers (the DRS dataset store) can round-trip it bit-for-bit —
  /// recomputing Welford state from samples would not reproduce the
  /// original accumulation order.
  struct Raw {
    std::size_t n = 0;
    double sum = 0.0;
    double m = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  void add(double x);
  void merge(const RunningStats& other);

  Raw raw() const { return {n_, sum_, m_, m2_, min_, max_}; }
  static RunningStats from_raw(const Raw& r) {
    RunningStats s;
    s.n_ = r.n;
    s.sum_ = r.sum;
    s.m_ = r.m;
    s.m2_ = r.m2;
    s.min_ = r.min;
    s.max_ = r.max;
    return s;
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double sum() const { return sum_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  /// Sample variance via Welford; 0.0 when n < 2.
  double variance() const;
  bool empty() const { return n_ == 0; }

 private:
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double m_ = 0.0;    // Welford running mean
  double m2_ = 0.0;   // Welford running sum of squared deltas
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ddos::util
