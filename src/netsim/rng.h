// Deterministic random number generation for the simulator. Every stochastic
// component takes an explicit seed so scenarios replay bit-for-bit; the
// paper's figures are then reproducible runs, not one-off samples.
//
// Engine: xoshiro256** seeded via SplitMix64 (public-domain algorithms by
// Blackman & Vigna), re-implemented here to avoid external dependencies and
// keep cross-platform determinism (std:: distributions are not portable).
#pragma once

#include <cstdint>
#include <vector>

namespace ddos::netsim {

/// SplitMix64 — used for seeding and cheap stateless hashing of ids to
/// stable pseudo-random streams.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless mix of a value (one SplitMix64 round with the value as state).
std::uint64_t mix64(std::uint64_t v);

/// xoshiro256** engine with distribution helpers. All helpers use explicit
/// algorithms (not std::uniform_int_distribution) for determinism.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform in [0, n); n must be > 0. Unbiased via rejection.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial.
  bool chance(double p);

  /// Standard normal via Box-Muller (cached spare deviate).
  double normal();
  double normal(double mean, double sd);

  /// Log-normal with given location/scale of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Exponential with given rate lambda (> 0).
  double exponential(double lambda);

  /// Pareto (Lomax-style: xm * U^(-1/alpha)), heavy-tailed sizes.
  double pareto(double xm, double alpha);

  /// Poisson-distributed count (Knuth for small means, normal approx above).
  std::uint64_t poisson(double mean);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_u64(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream keyed by `stream_id` WITHOUT
  /// advancing this generator: split(k) is a pure function of (state, k),
  /// so parallel shards can each derive their own stream from a shared
  /// parent in any order — the basis of thread-count-invariant results in
  /// src/exec/ regions.
  Rng split(std::uint64_t stream_id) const;

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// Zipf(α) sampler over ranks {1..n} using rejection-inversion
/// (Hörmann & Derflinger), O(1) per sample. Models heavy-tailed
/// provider-size and domain-popularity distributions.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double alpha);

  /// Rank in [1, n]; rank 1 is the most probable.
  std::uint64_t sample(Rng& rng) const;

  std::uint64_t n() const { return n_; }
  double alpha() const { return alpha_; }

 private:
  double h(double x) const;
  double h_integral(double x) const;
  double h_integral_inverse(double x) const;

  std::uint64_t n_;
  double alpha_;
  double h_integral_x1_;
  double h_integral_n_;
  double s_;
};

}  // namespace ddos::netsim
