#include "util/histogram.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ddos::util {
namespace {

TEST(LogHistogram, OrderOfMagnitudeBins) {
  LogHistogram h(1.0, 1.0, 6);  // bins [1,10), [10,100), ...
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 1000.0);
  h.add(5.0);
  h.add(50.0);
  h.add(55.0);
  h.add(5e5);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(1), 2u);
  EXPECT_EQ(h.bin(5), 1u);
}

TEST(LogHistogram, NonPositiveGoesToFirstBin) {
  LogHistogram h(1.0, 1.0, 4);
  h.add(0.0);
  h.add(-5.0);
  EXPECT_EQ(h.bin(0), 2u);
}

TEST(LogHistogram, ClampsAboveRange) {
  LogHistogram h(1.0, 1.0, 3);  // covers up to 1000
  h.add(1e9);
  EXPECT_EQ(h.bin(2), 1u);
}

TEST(LogHistogram, InvalidConstructionThrows) {
  EXPECT_THROW(LogHistogram(0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 1.0, 0), std::invalid_argument);
}

TEST(LogHistogram, MergeAddsBinwise) {
  LogHistogram a(1.0, 1.0, 4);
  LogHistogram b(1.0, 1.0, 4);
  a.add(5.0);       // bin 0
  b.add(50.0, 2);   // bin 1
  b.add(7.0);       // bin 0
  a.merge(b);
  EXPECT_EQ(a.bin(0), 2u);
  EXPECT_EQ(a.bin(1), 2u);
  EXPECT_EQ(a.total(), 4u);
}

TEST(LogHistogram, MergeShapeMismatchThrows) {
  LogHistogram a(1.0, 1.0, 4);
  EXPECT_THROW(a.merge(LogHistogram(1.0, 1.0, 5)), std::invalid_argument);
  EXPECT_THROW(a.merge(LogHistogram(2.0, 1.0, 4)), std::invalid_argument);
  EXPECT_THROW(a.merge(LogHistogram(1.0, 0.5, 4)), std::invalid_argument);
}

TEST(LogHistogram, MergeAccumulatesAcrossThreadsPattern) {
  // The per-thread aggregation pattern obs::HistogramMetric relies on:
  // independent shard histograms merged into one at snapshot time.
  std::vector<LogHistogram> shards(4, LogHistogram(1.0, 1.0, 6));
  for (std::size_t t = 0; t < shards.size(); ++t) {
    for (int i = 0; i < 100; ++i) {
      // Thread t observes 10^t-scaled values: one order of magnitude each.
      shards[t].add(std::pow(10.0, static_cast<double>(t)) * 2.0);
    }
  }
  LogHistogram merged(1.0, 1.0, 6);
  for (const auto& s : shards) merged.merge(s);
  EXPECT_EQ(merged.total(), 400u);
  for (std::size_t b = 0; b < 4; ++b) EXPECT_EQ(merged.bin(b), 100u);
}

TEST(CategoryCounter, CountsAndFractions) {
  CategoryCounter c;
  c.add("TCP", 9);
  c.add("UDP");
  EXPECT_EQ(c.count("TCP"), 9u);
  EXPECT_EQ(c.count("UDP"), 1u);
  EXPECT_EQ(c.count("ICMP"), 0u);
  EXPECT_EQ(c.total(), 10u);
  EXPECT_DOUBLE_EQ(c.fraction("TCP"), 0.9);
  EXPECT_DOUBLE_EQ(c.fraction("missing"), 0.0);
  EXPECT_EQ(c.distinct(), 2u);
}

TEST(CategoryCounter, TopOrdersByCountThenKey) {
  CategoryCounter c;
  c.add("b", 5);
  c.add("a", 5);
  c.add("c", 9);
  const auto top = c.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "c");
  EXPECT_EQ(top[1].first, "a");  // tie broken by key
}

TEST(CategoryCounter, TopWithFewerEntriesThanK) {
  CategoryCounter c;
  c.add("x");
  const auto top = c.top(10);
  ASSERT_EQ(top.size(), 1u);
}

TEST(CategoryCounter, EmptyFractionIsZero) {
  const CategoryCounter c;
  EXPECT_DOUBLE_EQ(c.fraction("x"), 0.0);
  EXPECT_TRUE(c.top(3).empty());
}

TEST(LogHistogramQuantile, EmptyIsZero) {
  const LogHistogram h(0.01, 0.1, 100);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(LogHistogramQuantile, SingleValueLandsInItsBin) {
  LogHistogram h(0.01, 0.1, 100);
  h.add(3.0, 1000);
  // Every quantile of a point mass must stay inside the 3.0 bin.
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, 3.0 / std::pow(10.0, 0.1)) << "q " << q;
    EXPECT_LE(v, 3.0 * std::pow(10.0, 0.1)) << "q " << q;
  }
}

TEST(LogHistogramQuantile, QuantilesAreMonotoneAndBracketTheMass) {
  LogHistogram h(0.01, 0.1, 100);
  // 90% of mass at ~1, 9% at ~10, 1% at ~100.
  h.add(1.0, 9000);
  h.add(10.0, 900);
  h.add(100.0, 100);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p999 = h.quantile(0.999);
  EXPECT_LT(p50, 2.0);
  EXPECT_GT(p95, 5.0);
  EXPECT_LT(p95, 20.0);
  EXPECT_GT(p999, 50.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p999);
}

TEST(LogHistogramQuantile, MergePreservesQuantiles) {
  LogHistogram a(0.01, 0.1, 100);
  LogHistogram b(0.01, 0.1, 100);
  LogHistogram whole(0.01, 0.1, 100);
  for (int i = 1; i <= 1000; ++i) {
    const double x = 0.1 * i;
    (i % 2 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), whole.quantile(q)) << "q " << q;
  }
}

TEST(LogHistogramQuantile, ClampsOutOfRangeQ) {
  LogHistogram h(0.01, 0.1, 100);
  h.add(1.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

}  // namespace
}  // namespace ddos::util
