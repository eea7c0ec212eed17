// Replica degree distributions for the coded slotted-ALOHA family
// (IRSA/CSA — Liva, "Graph-Based Analysis and Optimization of Contention
// Resolution Diversity Slotted ALOHA", IEEE Trans. Comm. 2011).
//
// An IRSA tag samples a *degree* d from a distribution
//
//   Λ(x) = Σ_d Λ_d x^d,   Σ_d Λ_d = 1,
//
// and transmits d replicas of its report in d distinct slots of the
// frame. CRDSA is the degenerate case Λ(x) = x^2. The decoder runs
// iterative successive interference cancellation (SIC) over the bipartite
// tag/slot graph; in the asymptotic (density-evolution) limit, with q_i
// the probability that an edge of the graph is still unresolved after i
// iterations, the iteration between slot ("sum") and tag ("burst") nodes
// is
//
//   q_{i+1} = Λ'(1 − exp(−G·Λ'(1)·q_i)) / Λ'(1),     q_0 = 1,
//
// where G is the offered load in tags per slot and Λ'(x) = Σ_d d Λ_d
// x^{d−1} (slot degrees are Poisson with mean G·Λ'(1); the inner
// exponential is the probability every *other* replica in a slot is
// already cancelled, the outer Λ'(·)/Λ'(1) is the edge-perspective tag
// update). The *threshold* G* = sup{G : q_i → 0} is the largest load at
// which SIC decodes everything with probability → 1 as the frame grows:
//
//   G*(x^2)                      ≈ 0.50   (CRDSA-2, asymptotic)
//   G*(x^3)                      ≈ 0.82
//   G*(0.5x^2 + 0.28x^3 + 0.22x^8) ≈ 0.938  (Liva's optimized Λ)
//
// versus 1/e ≈ 0.368 for uncoded slotted ALOHA. (CRDSA-2's measured
// finite-frame peak ~0.55 exceeds its asymptotic threshold; finite
// frames decode a useful fraction beyond G*.) DensityEvolutionThreshold()
// evaluates the recursion numerically so tests pin the shipped presets to
// these published values.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace anc::protocols {

// A normalized replica-degree distribution Λ. Degrees are 1-based:
// lambda[i] is the probability of degree `min_degree + i`.
class DegreeDistribution {
 public:
  // `weights` need not be normalized; zero-weight leading degrees are
  // allowed (e.g. {0, 1} == always degree 2).
  DegreeDistribution(std::vector<double> weights, int min_degree = 1);

  // --- Presets -----------------------------------------------------------
  // Λ(x) = x^2: every tag sends exactly two replicas (classic CRDSA).
  static DegreeDistribution Crdsa2();
  // Λ(x) = x^3 (CRDSA-3).
  static DegreeDistribution Crdsa3();
  // Λ(x) = 0.5x^2 + 0.28x^3 + 0.22x^8 — the classic optimized IRSA
  // distribution (Liva 2011, Table I), threshold G* ≈ 0.938.
  static DegreeDistribution IrsaOptimal();

  // Samples a degree using the generator's next two draws. A point mass
  // (FixedDegree() != 0) returns its degree without drawing: a tag whose
  // degree is fixed spends randomness only on choosing its slots.
  int Sample(anc::Pcg32& rng) const;
  // Samples a degree from a raw 64-bit uniform value — the seeded
  // pseudo-random path, where the "draw" is a hash the reader can
  // regenerate (see protocols/seeded.h).
  int SampleFromUniform(std::uint64_t u) const;

  // d when Λ(x) = x^d (every tag sends exactly d replicas), else 0.
  int FixedDegree() const {
    return !pmf_.empty() && pmf_.front() == 1.0 ? min_degree_ : 0;
  }
  int max_degree() const { return min_degree_ + static_cast<int>(cdf_.size()) - 1; }
  // Mean replica count Λ'(1) = Σ_d d Λ_d (the per-tag energy cost).
  double MeanDegree() const;
  // P(degree == d).
  double Probability(int d) const;

 private:
  int min_degree_;
  std::vector<double> pmf_;  // normalized
  std::vector<double> cdf_;  // inclusive prefix sums; back() == 1.0
};

// Numerically evaluates the density-evolution recursion above and returns
// the largest offered load G (tags/slot) the distribution decodes in the
// asymptotic limit, to `tolerance` via bisection.
double DensityEvolutionThreshold(const DegreeDistribution& dist,
                                 double tolerance = 1e-3);

}  // namespace anc::protocols
