#include "signal/msk.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "signal/channel.h"

namespace anc::signal {
namespace {

std::vector<std::uint8_t> RandomBits(std::size_t n, anc::Pcg32& rng) {
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

TEST(Msk, ConstantEnvelope) {
  anc::Pcg32 rng(1);
  MskModulator mod(MskParams{8, 2.5, 0.3});
  const Buffer y = mod.Modulate(RandomBits(64, rng));
  for (const Sample& s : y) {
    EXPECT_NEAR(std::abs(s), 2.5, 1e-9);
  }
}

TEST(Msk, PhaseAdvancesHalfPiPerBit) {
  MskModulator mod(MskParams{16, 1.0, 0.0});
  const std::uint8_t one_bits[] = {1, 1, 1, 1};
  const Buffer ones = mod.Modulate(one_bits);
  // After k bits of '1', accumulated phase = k * pi/2.
  for (int bit = 1; bit <= 4; ++bit) {
    const Sample s = ones[static_cast<std::size_t>(bit * 16 - 1)];
    const double expected = bit * M_PI / 2.0;
    const double delta =
        std::remainder(std::arg(s) - expected, 2.0 * M_PI);
    EXPECT_NEAR(delta, 0.0, 1e-9) << "bit=" << bit;
  }
}

class MskRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(MskRoundTrip, NoiselessRecovery) {
  const int samples_per_bit = GetParam();
  anc::Pcg32 rng(100 + samples_per_bit);
  MskModulator mod(MskParams{samples_per_bit, 1.0, 0.0});
  const MskDemodulator demod(samples_per_bit);
  for (int trial = 0; trial < 20; ++trial) {
    const auto bits = RandomBits(96, rng);
    const auto decoded = demod.Demodulate(mod.Modulate(bits), bits.size());
    EXPECT_EQ(decoded, bits);
  }
}

INSTANTIATE_TEST_SUITE_P(SamplesPerBit, MskRoundTrip,
                         ::testing::Values(2, 4, 8, 16));

TEST(Msk, RecoveryThroughChannel) {
  // Attenuation and phase rotation must not affect the phase-difference
  // detector.
  anc::Pcg32 rng(7);
  MskModulator mod(MskParams{8, 1.0, 0.0});
  const MskDemodulator demod(8);
  for (int trial = 0; trial < 20; ++trial) {
    const auto bits = RandomBits(96, rng);
    const ChannelParams ch = RandomChannel(rng, 0.3, 2.0);
    const auto decoded =
        demod.Demodulate(ApplyChannel(mod.Modulate(bits), ch), bits.size());
    EXPECT_EQ(decoded, bits);
  }
}

TEST(Msk, BerLowAtHighSnr) {
  anc::Pcg32 rng(8);
  MskModulator mod(MskParams{8, 1.0, 0.0});
  const MskDemodulator demod(8);
  int errors = 0, total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto bits = RandomBits(96, rng);
    Buffer y = mod.Modulate(bits);
    AddAwgn(y, NoisePowerForSnrDb(1.0, 15.0), rng);
    const auto decoded = demod.Demodulate(y, bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      errors += decoded[i] != bits[i];
      ++total;
    }
  }
  EXPECT_LT(static_cast<double>(errors) / total, 0.001);
}

TEST(Msk, BerDegradesMonotonicallyWithNoise) {
  anc::Pcg32 rng(9);
  MskModulator mod(MskParams{8, 1.0, 0.0});
  const MskDemodulator demod(8);
  auto ber_at = [&](double snr_db) {
    int errors = 0, total = 0;
    for (int trial = 0; trial < 80; ++trial) {
      const auto bits = RandomBits(96, rng);
      Buffer y = mod.Modulate(bits);
      AddAwgn(y, NoisePowerForSnrDb(1.0, snr_db), rng);
      const auto decoded = demod.Demodulate(y, bits.size());
      for (std::size_t i = 0; i < bits.size(); ++i) {
        errors += decoded[i] != bits[i];
        ++total;
      }
    }
    return static_cast<double>(errors) / total;
  };
  const double ber_minus5 = ber_at(-5.0);
  const double ber_5 = ber_at(5.0);
  const double ber_15 = ber_at(15.0);
  EXPECT_GT(ber_minus5, ber_5);
  EXPECT_GT(ber_5, ber_15);
  EXPECT_GT(ber_minus5, 0.05);  // the channel really is bad at -5 dB
}

TEST(Msk, DemodulateShortBuffer) {
  const MskDemodulator demod(8);
  const Buffer empty;
  const auto bits = demod.Demodulate(empty, 4);
  EXPECT_EQ(bits.size(), 4u);  // padded decisions, no crash
}

}  // namespace
}  // namespace anc::signal
