#include "signal/mixer.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "signal/msk.h"

namespace anc::signal {
namespace {

TEST(Mixer, EmptyInput) {
  EXPECT_TRUE(MixSignals({}).empty());
}

TEST(Mixer, SingleSignalPassThrough) {
  Buffer a{{1.0, 2.0}, {3.0, 4.0}};
  const Buffer signals[] = {a};
  const Buffer mixed = MixSignals(signals);
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0], a[0]);
  EXPECT_EQ(mixed[1], a[1]);
}

TEST(Mixer, SampleWiseSum) {
  Buffer a{{1.0, 0.0}, {1.0, 0.0}};
  Buffer b{{0.0, 1.0}, {0.0, 1.0}};
  const Buffer signals[] = {a, b};
  const Buffer mixed = MixSignals(signals);
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0], (Sample{1.0, 1.0}));
}

TEST(Mixer, UnequalLengthsZeroPadded) {
  Buffer a{{1.0, 0.0}};
  Buffer b{{1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
  const Buffer signals[] = {a, b};
  const Buffer mixed = MixSignals(signals);
  ASSERT_EQ(mixed.size(), 3u);
  EXPECT_EQ(mixed[0], (Sample{2.0, 0.0}));
  EXPECT_EQ(mixed[2], (Sample{3.0, 0.0}));
}

TEST(Mixer, OffsetsShiftConstituents) {
  Buffer a{{1.0, 0.0}, {1.0, 0.0}};
  Buffer b{{5.0, 0.0}};
  const Buffer signals[] = {a, b};
  const std::size_t offsets[] = {0, 1};
  const Buffer mixed = MixSignals(signals, offsets);
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0], (Sample{1.0, 0.0}));
  EXPECT_EQ(mixed[1], (Sample{6.0, 0.0}));
}

TEST(Mixer, MixtureMinusConstituentIsOther) {
  anc::Pcg32 rng(1);
  MskModulator mod(MskParams{8, 1.0, 0.0});
  std::vector<std::uint8_t> bits_a(64), bits_b(64);
  for (auto& b : bits_a) b = static_cast<std::uint8_t>(rng() & 1);
  for (auto& b : bits_b) b = static_cast<std::uint8_t>(rng() & 1);
  const Buffer a = mod.Modulate(bits_a);
  const Buffer b = mod.Modulate(bits_b);
  const Buffer signals[] = {a, b};
  Buffer mixed = MixSignals(signals);
  SubtractScaled(mixed, a, Sample{1.0, 0.0});
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(std::abs(mixed[i] - b[i]), 0.0, 1e-12);
  }
}

}  // namespace
}  // namespace anc::signal
