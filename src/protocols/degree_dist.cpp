#include "protocols/degree_dist.h"

#include <cmath>
#include <cstddef>

namespace anc::protocols {

DegreeDistribution::DegreeDistribution(std::vector<double> weights,
                                       int min_degree)
    : min_degree_(min_degree) {
  // Trim zero-weight leading degrees so max_degree()/Probability() reflect
  // the support, then normalize.
  std::size_t first = 0;
  while (first + 1 < weights.size() && weights[first] == 0.0) {
    ++first;
    ++min_degree_;
  }
  double total = 0.0;
  for (std::size_t i = first; i < weights.size(); ++i) total += weights[i];
  pmf_.reserve(weights.size() - first);
  cdf_.reserve(weights.size() - first);
  double acc = 0.0;
  for (std::size_t i = first; i < weights.size(); ++i) {
    const double p = total > 0.0 ? weights[i] / total : 0.0;
    pmf_.push_back(p);
    acc += p;
    cdf_.push_back(acc);
  }
  if (!cdf_.empty()) cdf_.back() = 1.0;  // guard against rounding
}

DegreeDistribution DegreeDistribution::Crdsa2() {
  return DegreeDistribution({0.0, 1.0});
}

DegreeDistribution DegreeDistribution::Crdsa3() {
  return DegreeDistribution({0.0, 0.0, 1.0});
}

DegreeDistribution DegreeDistribution::IrsaOptimal() {
  // Λ(x) = 0.5x^2 + 0.28x^3 + 0.22x^8 (Liva 2011).
  return DegreeDistribution({0.0, 0.5, 0.28, 0.0, 0.0, 0.0, 0.0, 0.22});
}

int DegreeDistribution::Sample(anc::Pcg32& rng) const {
  if (const int d = FixedDegree()) return d;
  // Two explicit statements: the evaluation order of `a << 32 | b` is
  // unspecified, and the draw order must be identical on every compiler.
  const std::uint64_t hi = rng();
  const std::uint64_t lo = rng();
  return SampleFromUniform(hi << 32 | lo);
}

int DegreeDistribution::SampleFromUniform(std::uint64_t u) const {
  // Map the 64-bit uniform onto [0,1) and invert the CDF. The CDF is tiny
  // (max degree 8 in the shipped presets), so a linear scan beats binary
  // search.
  const double x =
      static_cast<double>(u >> 11) * (1.0 / 9007199254740992.0);  // 2^53
  for (std::size_t i = 0; i < cdf_.size(); ++i) {
    if (x < cdf_[i]) return min_degree_ + static_cast<int>(i);
  }
  return max_degree();
}

double DegreeDistribution::MeanDegree() const {
  double mean = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i) {
    mean += pmf_[i] * static_cast<double>(min_degree_ + static_cast<int>(i));
  }
  return mean;
}

double DegreeDistribution::Probability(int d) const {
  const int i = d - min_degree_;
  if (i < 0 || i >= static_cast<int>(pmf_.size())) return 0.0;
  return pmf_[static_cast<std::size_t>(i)];
}

namespace {

// One density-evolution run: does the edge-erasure recursion hit ~0 at
// offered load G?
bool DecodesAtLoad(const DegreeDistribution& dist, double load) {
  const double mean = dist.MeanDegree();
  const auto lambda_prime = [&](double x) {
    double v = 0.0;
    for (int d = 1; d <= dist.max_degree(); ++d) {
      const double p = dist.Probability(d);
      if (p > 0.0) v += p * d * std::pow(x, d - 1);
    }
    return v;
  };
  double q = 1.0;
  for (int i = 0; i < 10000; ++i) {
    const double p_slot = 1.0 - std::exp(-load * mean * q);
    const double next = lambda_prime(p_slot) / mean;
    if (next < 1e-9) return true;
    // Converged to a nonzero fixed point: stuck.
    if (q - next < 1e-12) return false;
    q = next;
  }
  return q < 1e-9;
}

}  // namespace

double DensityEvolutionThreshold(const DegreeDistribution& dist,
                                 double tolerance) {
  double lo = 0.0, hi = 1.0;  // thresholds of interest live in (0, 1)
  while (hi - lo > tolerance) {
    const double mid = 0.5 * (lo + hi);
    (DecodesAtLoad(dist, mid) ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace anc::protocols
