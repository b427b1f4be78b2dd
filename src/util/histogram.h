// Log-binned histograms and category counters, used by the figure benches
// (impact magnitude buckets, port and org tallies), the metrics registry
// and the serve latency driver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace ddos::util {

/// Log10-spaced histogram for heavy-tailed quantities (hosted-domain
/// counts, RTT impact factors). Bin i covers [base*r^i, base*r^(i+1)).
class LogHistogram {
 public:
  /// `decades_per_bin` of 1.0 gives order-of-magnitude bins as in Fig. 7/8.
  LogHistogram(double base, double decades_per_bin, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);

  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  std::uint64_t total() const { return total_; }
  double fraction(std::size_t i) const;

  /// Add `other`'s counts bin-by-bin (per-thread histogram aggregation).
  /// Throws std::invalid_argument unless both histograms share the same
  /// (base, decades_per_bin, bins) shape.
  void merge(const LogHistogram& other);

  /// Value at quantile q in [0, 1], geometrically interpolated inside the
  /// containing bin (log-binned data, so log-linear interpolation is the
  /// faithful choice). 0 when the histogram is empty. Exact only up to
  /// bin resolution — fine for p50/p99/p999 latency reporting.
  double quantile(double q) const;

 private:
  double base_;
  double decades_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Counter keyed by label — used for protocol/port tallies (Fig. 6) and
/// org/ASN leaderboards (Tables 4-6).
class CategoryCounter {
 public:
  void add(const std::string& key, std::uint64_t weight = 1);
  std::uint64_t count(const std::string& key) const;
  std::uint64_t total() const { return total_; }
  double fraction(const std::string& key) const;

  /// Top-k (key, count) pairs by descending count, key ascending on ties.
  std::vector<std::pair<std::string, std::uint64_t>> top(std::size_t k) const;
  std::size_t distinct() const { return counts_.size(); }

  /// Fold another counter in (per-shard counters reduced after a parallel
  /// region). Count maps are order-independent, so merge order is free.
  void merge(const CategoryCounter& other);

 private:
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace ddos::util
