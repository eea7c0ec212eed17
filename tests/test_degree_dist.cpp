#include "protocols/degree_dist.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace anc::protocols {
namespace {

TEST(DegreeDistribution, NormalizesAndTrimsWeights) {
  // Unnormalized weights with a zero-weight leading degree.
  const DegreeDistribution d({0.0, 3.0, 1.0}, 1);  // degrees 2 and 3, 3:1
  EXPECT_DOUBLE_EQ(d.Probability(1), 0.0);
  EXPECT_DOUBLE_EQ(d.Probability(2), 0.75);
  EXPECT_DOUBLE_EQ(d.Probability(3), 0.25);
  EXPECT_DOUBLE_EQ(d.Probability(4), 0.0);
  EXPECT_EQ(d.max_degree(), 3);
  EXPECT_DOUBLE_EQ(d.MeanDegree(), 2.25);
}

TEST(DegreeDistribution, PresetsMatchTheLiterature) {
  const auto crdsa2 = DegreeDistribution::Crdsa2();
  EXPECT_DOUBLE_EQ(crdsa2.Probability(2), 1.0);
  EXPECT_DOUBLE_EQ(crdsa2.MeanDegree(), 2.0);

  const auto crdsa3 = DegreeDistribution::Crdsa3();
  EXPECT_DOUBLE_EQ(crdsa3.Probability(3), 1.0);

  // Liva 2011 Table I: Λ(x) = 0.5x^2 + 0.28x^3 + 0.22x^8, Λ'(1) = 3.6.
  const auto irsa = DegreeDistribution::IrsaOptimal();
  EXPECT_DOUBLE_EQ(irsa.Probability(2), 0.5);
  EXPECT_DOUBLE_EQ(irsa.Probability(3), 0.28);
  EXPECT_DOUBLE_EQ(irsa.Probability(8), 0.22);
  EXPECT_EQ(irsa.max_degree(), 8);
  EXPECT_NEAR(irsa.MeanDegree(), 3.6, 1e-12);
}

TEST(DegreeDistribution, SampleFromUniformIsDeterministic) {
  const auto irsa = DegreeDistribution::IrsaOptimal();
  anc::Pcg32 rng(7, 11);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t u =
        (static_cast<std::uint64_t>(rng()) << 32) | rng();
    const int a = irsa.SampleFromUniform(u);
    EXPECT_EQ(a, irsa.SampleFromUniform(u));
    EXPECT_GE(a, 2);
    EXPECT_LE(a, 8);
  }
}

TEST(DegreeDistribution, SampleFollowsThePmf) {
  const auto irsa = DegreeDistribution::IrsaOptimal();
  anc::Pcg32 rng(42, 1);
  int counts[9] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[irsa.Sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.50, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(kDraws), 0.28, 0.01);
  EXPECT_NEAR(counts[8] / static_cast<double>(kDraws), 0.22, 0.01);
  EXPECT_EQ(counts[4] + counts[5] + counts[6] + counts[7], 0);
}

TEST(DegreeDistribution, SampleSequenceReproducesFromSeed) {
  const auto irsa = DegreeDistribution::IrsaOptimal();
  anc::Pcg32 a(123, 5), b(123, 5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(irsa.Sample(a), irsa.Sample(b)) << "draw " << i;
  }
}

// A point mass consumes no randomness: IRSA over Λ(x) = x^d then draws
// exactly the replica slots CRDSA-d draws, so the two share one stream.
TEST(DegreeDistribution, PointMassSamplesWithoutDrawing) {
  EXPECT_EQ(DegreeDistribution::Crdsa2().FixedDegree(), 2);
  EXPECT_EQ(DegreeDistribution::Crdsa3().FixedDegree(), 3);
  EXPECT_EQ(DegreeDistribution::IrsaOptimal().FixedDegree(), 0);

  anc::Pcg32 rng(9, 3);
  anc::Pcg32 untouched = rng;
  EXPECT_EQ(DegreeDistribution::Crdsa2().Sample(rng), 2);
  EXPECT_EQ(rng(), untouched());

  anc::Pcg32 advanced = rng;
  (void)DegreeDistribution::IrsaOptimal().Sample(rng);
  advanced();
  advanced();
  EXPECT_EQ(rng(), advanced());
}

TEST(DensityEvolution, ThresholdsMatchPublishedValues) {
  // Liva 2011: G*(x^2) ≈ 0.50, G*(x^3) ≈ 0.82, G*(Λ3) ≈ 0.938.
  EXPECT_NEAR(DensityEvolutionThreshold(DegreeDistribution::Crdsa2()), 0.50,
              0.01);
  EXPECT_NEAR(DensityEvolutionThreshold(DegreeDistribution::Crdsa3()), 0.82,
              0.01);
  EXPECT_NEAR(DensityEvolutionThreshold(DegreeDistribution::IrsaOptimal()),
              0.938, 0.005);
}

TEST(DensityEvolution, OptimizedDistributionDominates) {
  const double crdsa2 =
      DensityEvolutionThreshold(DegreeDistribution::Crdsa2());
  const double crdsa3 =
      DensityEvolutionThreshold(DegreeDistribution::Crdsa3());
  const double irsa =
      DensityEvolutionThreshold(DegreeDistribution::IrsaOptimal());
  EXPECT_LT(crdsa2, crdsa3);
  EXPECT_LT(crdsa3, irsa);
  // Everything beats uncoded ALOHA's 1/e, nothing beats G = 1 packing.
  EXPECT_GT(crdsa2, 1.0 / 2.718281828459045);
  EXPECT_LT(irsa, 1.0);
}

}  // namespace
}  // namespace anc::protocols
