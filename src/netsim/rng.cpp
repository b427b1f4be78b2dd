#include "netsim/rng.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ddos::netsim {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t v) { return splitmix64(v); }

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_u64: n == 0");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (-n) % n;
  while (true) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  const std::uint64_t r = span == 0 ? next_u64() : uniform_u64(span);
  return lo + static_cast<std::int64_t>(r);
}

double Rng::uniform() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  const double v = uniform();
  const double r = std::sqrt(-2.0 * std::log(u));
  const double theta = 2.0 * std::numbers::pi * v;
  spare_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sd) { return mean + sd * normal(); }

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double lambda) {
  if (lambda <= 0.0) throw std::invalid_argument("exponential: lambda <= 0");
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

double Rng::pareto(double xm, double alpha) {
  if (xm <= 0.0 || alpha <= 0.0)
    throw std::invalid_argument("pareto: xm/alpha <= 0");
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm * std::pow(u, -1.0 / alpha);
}

std::uint64_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-mean);
    double p = 1.0;
    std::uint64_t k = 0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction for large means.
  const double x = normal(mean, std::sqrt(mean));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

Rng Rng::split(std::uint64_t stream_id) const {
  // Condense the four state words (rotations break the xoshiro linearity),
  // then mix in the stream id through two SplitMix64 rounds so adjacent ids
  // land in unrelated seeds.
  const std::uint64_t state =
      s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 47);
  return Rng(mix64(state ^ mix64(stream_id + 0x9E3779B97F4A7C15ull)));
}

// --- ZipfSampler (rejection-inversion, Hörmann & Derflinger 1996) ---------

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha)
    : n_(n), alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n == 0");
  if (alpha <= 0.0) throw std::invalid_argument("ZipfSampler: alpha <= 0");
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_n_ = h_integral(static_cast<double>(n) + 0.5);
  s_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfSampler::h(double x) const { return std::pow(x, -alpha_); }

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  if (std::abs(1.0 - alpha_) < 1e-12) return log_x;
  return (std::exp((1.0 - alpha_) * log_x) - 1.0) / (1.0 - alpha_);
}

double ZipfSampler::h_integral_inverse(double x) const {
  if (std::abs(1.0 - alpha_) < 1e-12) return std::exp(x);
  double t = x * (1.0 - alpha_);
  if (t < -1.0) t = -1.0;  // Guard against rounding below the pole.
  return std::exp(std::log1p(t) / (1.0 - alpha_));
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
  while (true) {
    const double u =
        h_integral_n_ + rng.uniform() * (h_integral_x1_ - h_integral_n_);
    const double x = h_integral_inverse(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= s_ || u >= h_integral(kd + 0.5) - h(kd)) return k;
  }
}

}  // namespace ddos::netsim
