#include "signal/energy_estimator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "signal/channel.h"
#include "signal/mixer.h"
#include "signal/msk.h"

namespace anc::signal {
namespace {

std::vector<std::uint8_t> RandomBits(std::size_t n, anc::Pcg32& rng) {
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

Buffer TwoSignalMixture(double a, double b, anc::Pcg32& rng,
                        std::size_t bits = 512) {
  MskModulator mod(MskParams{8, 1.0, 0.0});
  Buffer s1 = ApplyChannel(mod.Modulate(RandomBits(bits, rng)),
                           {a, 2.0 * M_PI * rng.UniformDouble(), 0.0});
  Buffer s2 = ApplyChannel(mod.Modulate(RandomBits(bits, rng)),
                           {b, 2.0 * M_PI * rng.UniformDouble(), 0.0});
  const Buffer signals[] = {s1, s2};
  return MixSignals(signals);
}

struct AmplitudePair {
  double a;
  double b;
};

class EnergySeparation : public ::testing::TestWithParam<AmplitudePair> {};

TEST_P(EnergySeparation, RecoversAmplitudes) {
  const auto [a, b] = GetParam();
  anc::Pcg32 rng(static_cast<std::uint64_t>(a * 1000 + b * 10));
  const Buffer mixed = TwoSignalMixture(a, b, rng);
  const AmplitudeEstimate est = EstimateTwoAmplitudes(mixed);
  ASSERT_TRUE(est.valid);
  // The mu/sigma method is a statistical estimator; with ~4k samples the
  // relative error is a few percent.
  EXPECT_NEAR(est.stronger, std::max(a, b), 0.10 * std::max(a, b));
  EXPECT_NEAR(est.weaker, std::min(a, b), 0.15 * std::max(a, b));
}

INSTANTIATE_TEST_SUITE_P(Pairs, EnergySeparation,
                         ::testing::Values(AmplitudePair{1.0, 1.0},
                                           AmplitudePair{1.0, 0.5},
                                           AmplitudePair{1.5, 0.7},
                                           AmplitudePair{0.8, 0.6},
                                           AmplitudePair{2.0, 0.4}));

TEST(EnergyEstimator, MuIsSumOfSquares) {
  anc::Pcg32 rng(11);
  const Buffer mixed = TwoSignalMixture(1.2, 0.8, rng);
  const AmplitudeEstimate est = EstimateTwoAmplitudes(mixed);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.mu, 1.2 * 1.2 + 0.8 * 0.8, 0.08);
}

TEST(EnergyEstimator, SigmaMinusMuIsFourABOverPi) {
  anc::Pcg32 rng(12);
  const Buffer mixed = TwoSignalMixture(1.0, 0.6, rng, 2048);
  const AmplitudeEstimate est = EstimateTwoAmplitudes(mixed);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.sigma - est.mu, 4.0 * 1.0 * 0.6 / M_PI, 0.06);
}

TEST(EnergyEstimator, SingleSignalDegenerates) {
  // A pure constant-envelope signal: weaker component ~ 0.
  anc::Pcg32 rng(13);
  MskModulator mod(MskParams{8, 1.0, 0.0});
  const Buffer solo = mod.Modulate(RandomBits(256, rng));
  const AmplitudeEstimate est = EstimateTwoAmplitudes(solo);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.stronger, 1.0, 0.05);
  EXPECT_LT(est.weaker, 0.15);
}

TEST(EnergyEstimator, TooShortIsInvalid) {
  const Buffer tiny(4, Sample{1.0, 0.0});
  EXPECT_FALSE(EstimateTwoAmplitudes(tiny).valid);
}

TEST(EnergyEstimator, SurvivesModerateNoise) {
  anc::Pcg32 rng(14);
  Buffer mixed = TwoSignalMixture(1.0, 0.7, rng, 1024);
  AddAwgn(mixed, NoisePowerForSnrDb(1.49, 20.0), rng);
  const AmplitudeEstimate est = EstimateTwoAmplitudes(mixed);
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.stronger, 1.0, 0.2);
  EXPECT_NEAR(est.weaker, 0.7, 0.25);
}

}  // namespace
}  // namespace anc::signal
