#include "common/rng.h"

#include <cmath>

namespace anc {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1) | 1) {
  operator()();
  state_ += seed;
  operator()();
}

std::uint32_t Pcg32::UniformBelow(std::uint32_t bound) {
  if (bound <= 1) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t m = static_cast<std::uint64_t>(operator()()) * bound;
  auto lo = static_cast<std::uint32_t>(m);
  if (lo < bound) {
    const std::uint32_t threshold = (0u - bound) % bound;
    while (lo < threshold) {
      m = static_cast<std::uint64_t>(operator()()) * bound;
      lo = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

double Pcg32::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

std::uint64_t Pcg32::Binomial(std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - Binomial(n, 1.0 - p);

  const double mean = static_cast<double>(n) * p;
  if (mean <= 64.0) {
    // Exact: geometric skipping over Bernoulli trials, O(n*p) expected.
    const double log_q = std::log1p(-p);
    std::uint64_t count = 0;
    double position = 0.0;
    while (true) {
      double u = 0.0;
      do {
        u = UniformDouble();
      } while (u <= 0.0);
      position += std::floor(std::log(u) / log_q) + 1.0;
      if (position > static_cast<double>(n)) break;
      ++count;
    }
    return count;
  }

  // Large-mean regime: normal approximation with continuity correction.
  const double stddev = std::sqrt(mean * (1.0 - p));
  double sample = std::round(mean + stddev * Normal());
  if (sample < 0.0) sample = 0.0;
  if (sample > static_cast<double>(n)) sample = static_cast<double>(n);
  return static_cast<std::uint64_t>(sample);
}

Pcg32 Pcg32::Split() {
  // One statement per draw, high half first: the operands of `a << 32 | b`
  // are unsequenced, and the draw order must not depend on the compiler.
  const std::uint64_t seed_hi = operator()();
  const std::uint64_t seed_lo = operator()();
  const std::uint64_t stream_hi = operator()();
  const std::uint64_t stream_lo = operator()();
  return Pcg32(seed_hi << 32 | seed_lo, stream_hi << 32 | stream_lo);
}

}  // namespace anc
