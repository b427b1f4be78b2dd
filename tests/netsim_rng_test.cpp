#include "netsim/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "util/stats.h"

namespace ddos::netsim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformU64Bounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(7), 7u);
  }
  EXPECT_THROW(rng.uniform_u64(0), std::invalid_argument);
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(4);
  std::map<std::uint64_t, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_u64(6)];
  for (const auto& [v, c] : counts) {
    EXPECT_NEAR(c, n / 6, n / 6 * 0.1) << "value " << v;
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, UniformDoubleInHalfOpenUnit) {
  Rng rng(6);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.001);
  EXPECT_GT(hi, 0.999);
}

TEST(Rng, ChanceEdges) {
  Rng rng(7);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(2.0));
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  std::vector<double> xs;
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.normal(10.0, 3.0));
  EXPECT_NEAR(util::mean(xs), 10.0, 0.05);
  EXPECT_NEAR(util::stddev(xs), 3.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.lognormal(2.0, 0.5));
  EXPECT_NEAR(util::median(xs), std::exp(2.0), std::exp(2.0) * 0.03);
  EXPECT_DOUBLE_EQ(util::min_of(xs) > 0.0, true);
}

TEST(Rng, ExponentialMeanAndPositivity) {
  Rng rng(10);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.exponential(0.5));
  EXPECT_NEAR(util::mean(xs), 2.0, 0.05);
  EXPECT_GT(util::min_of(xs), 0.0);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, ParetoTailAndMinimum) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.pareto(2.0, 1.5));
  EXPECT_GE(util::min_of(xs), 2.0);
  // Median of Pareto(xm, a) is xm * 2^(1/a).
  EXPECT_NEAR(util::median(xs), 2.0 * std::pow(2.0, 1.0 / 1.5), 0.1);
  EXPECT_THROW(rng.pareto(0.0, 1.0), std::invalid_argument);
}

TEST(Rng, PoissonSmallAndLargeMeans) {
  Rng rng(12);
  std::vector<double> small, large;
  for (int i = 0; i < 50000; ++i) {
    small.push_back(static_cast<double>(rng.poisson(3.0)));
    large.push_back(static_cast<double>(rng.poisson(200.0)));
  }
  EXPECT_NEAR(util::mean(small), 3.0, 0.05);
  EXPECT_NEAR(util::variance(small), 3.0, 0.15);
  EXPECT_NEAR(util::mean(large), 200.0, 1.0);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ShuffleIsUniformOverPermutations) {
  Rng rng(16);
  std::map<std::vector<int>, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    std::vector<int> v = {0, 1, 2};
    rng.shuffle(v);
    ++counts[v];
  }
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [perm, c] : counts) EXPECT_NEAR(c, n / 6, n / 6 * 0.1);
}

TEST(Mix64, StatelessAndDispersive) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

// --- Zipf sampler properties --------------------------------------------

class ZipfProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ZipfProperty, RanksInRangeAndMonotoneFrequencies) {
  const auto [n, alpha] = GetParam();
  ZipfSampler zipf(n, alpha);
  Rng rng(99);
  std::vector<std::uint64_t> counts(n, 0);
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) {
    const std::uint64_t r = zipf.sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, n);
    ++counts[r - 1];
  }
  // Rank 1 must dominate rank 4 which must dominate rank 16 (allowing
  // sampling noise on a 200K draw).
  if (n >= 16) {
    EXPECT_GT(counts[0], counts[3]);
    EXPECT_GT(counts[3], counts[15]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfProperty,
    ::testing::Values(std::make_tuple(std::uint64_t{100}, 0.85),
                      std::make_tuple(std::uint64_t{100}, 1.0),
                      std::make_tuple(std::uint64_t{1000}, 1.2),
                      std::make_tuple(std::uint64_t{16}, 0.5),
                      std::make_tuple(std::uint64_t{2}, 1.0)));

TEST(Zipf, HeadProbabilityMatchesTheory) {
  const std::uint64_t n = 50;
  const double alpha = 1.0;
  ZipfSampler zipf(n, alpha);
  Rng rng(100);
  double h = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
  int rank1 = 0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    if (zipf.sample(rng) == 1) ++rank1;
  }
  EXPECT_NEAR(static_cast<double>(rank1) / samples, 1.0 / h, 0.01);
}

TEST(RngSplit, DoesNotAdvanceParent) {
  Rng a(42);
  Rng b(42);
  (void)a.split(7);
  (void)a.split(9);
  // Parent state untouched: both generators continue identically.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngSplit, PureFunctionOfStateAndId) {
  const Rng parent(99);
  Rng c1 = parent.split(5);
  Rng c2 = parent.split(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(RngSplit, DistinctIdsGiveIndependentStreams) {
  const Rng parent(1);
  Rng c0 = parent.split(0);
  Rng c1 = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (c0.next_u64() == c1.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
  // Adjacent ids must not correlate in the low bits either.
  const Rng p2(1);
  for (std::uint64_t id = 0; id < 8; ++id) {
    Rng a = p2.split(id);
    Rng b = p2.split(id + 1);
    EXPECT_NE(a.next_u64(), b.next_u64());
  }
}

TEST(RngSplit, DiffersFromParentStream) {
  const Rng parent(7);
  Rng copy = parent;
  Rng child = parent.split(0);
  EXPECT_NE(copy.next_u64(), child.next_u64());
}

TEST(RngSplit, ChildUniformityIsSane) {
  // Coarse uniformity across children keyed by consecutive ids (the
  // parallel-shard pattern): bucket the first draw of 4096 children.
  const Rng parent(123);
  int buckets[16] = {0};
  const int children = 4096;
  for (int id = 0; id < children; ++id) {
    Rng child = parent.split(static_cast<std::uint64_t>(id));
    buckets[child.next_u64() >> 60] += 1;
  }
  for (int b = 0; b < 16; ++b) {
    EXPECT_GT(buckets[b], children / 16 / 2) << "bucket " << b;
    EXPECT_LT(buckets[b], children / 16 * 2) << "bucket " << b;
  }
}

TEST(Zipf, InvalidArgsThrow) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace ddos::netsim
