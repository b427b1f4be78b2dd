#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "netsim/rng.h"

namespace ddos::util {
namespace {

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, MeanBasic) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, VarianceMatchesHandComputation) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Sample variance with n-1 denominator.
  EXPECT_NEAR(variance(xs), 4.571428571, 1e-9);
  EXPECT_NEAR(stddev(xs), std::sqrt(4.571428571), 1e-9);
}

TEST(Stats, VarianceOfSingletonIsZero) {
  const std::vector<double> xs = {42.0};
  EXPECT_DOUBLE_EQ(variance(xs), 0.0);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Stats, PearsonPerfectPositive) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectNegative) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerateSeriesIsZero) {
  const std::vector<double> xs = {1, 1, 1};
  const std::vector<double> ys = {1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
  EXPECT_DOUBLE_EQ(pearson({}, {}), 0.0);
}

TEST(Stats, PearsonIndependentNearZero) {
  netsim::Rng rng(1);
  std::vector<double> xs, ys;
  for (int i = 0; i < 10000; ++i) {
    xs.push_back(rng.uniform());
    ys.push_back(rng.uniform());
  }
  EXPECT_LT(std::abs(pearson(xs, ys)), 0.05);
}

TEST(Stats, RanksHandleTies) {
  const std::vector<double> xs = {10.0, 20.0, 20.0, 30.0};
  const auto r = ranks(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, SpearmanMonotonicNonlinearIsOne) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 50; ++i) {
    xs.push_back(i);
    ys.push_back(std::exp(0.1 * i));  // monotone but nonlinear
  }
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs = {3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
  EXPECT_DOUBLE_EQ(min_of({}), 0.0);
}

TEST(RunningStats, MatchesBatchStatistics) {
  netsim::Rng rng(7);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 2.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), 1000u);
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-6);
  EXPECT_DOUBLE_EQ(rs.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(rs.max(), max_of(xs));
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats rs;
  EXPECT_TRUE(rs.empty());
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsConcatenation) {
  netsim::Rng rng(9);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.lognormal(0.0, 1.0);
    a.add(x);
    all.add(x);
  }
  for (int i = 0; i < 300; ++i) {
    const double x = rng.normal(-2.0, 0.5);
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);

  RunningStats c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 1.5);
}

TEST(Ecdf, EmptySample) {
  const Ecdf ecdf(std::span<const double>{});
  EXPECT_TRUE(ecdf.empty());
  EXPECT_DOUBLE_EQ(ecdf.at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.5), 0.0);
}

TEST(Ecdf, StepFunction) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const Ecdf ecdf(xs);
  EXPECT_DOUBLE_EQ(ecdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(ecdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.at(99.0), 1.0);
}

TEST(Ecdf, QuantileInverse) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0, 50.0};
  const Ecdf ecdf(xs);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.2), 10.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.21), 20.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.0), 10.0);
}

TEST(Ecdf, AtAndQuantileConsistent) {
  netsim::Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.normal(0, 5));
  const Ecdf ecdf(xs);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    EXPECT_GE(ecdf.at(ecdf.quantile(q)), q - 1e-12);
  }
}

// Property sweep: percentile is monotone in p and bounded by min/max.
class PercentileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileProperty, MonotoneAndBounded) {
  netsim::Rng rng(GetParam());
  std::vector<double> xs;
  const auto n = 1 + rng.uniform_u64(200);
  for (std::uint64_t i = 0; i < n; ++i) xs.push_back(rng.normal(0, 10));
  double prev = percentile(xs, 0.0);
  EXPECT_DOUBLE_EQ(prev, min_of(xs));
  for (double p = 5.0; p <= 100.0; p += 5.0) {
    const double cur = percentile(xs, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(prev, max_of(xs));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ddos::util
