// Differential tests of the waveform kernels: the phase-walk modulator,
// the select-based demodulator, the explicit-arithmetic channel rotation
// and the register-resident noise loop must reproduce, bit for bit, the
// straightforward implementations they replaced. Those are kept here as
// the references; any drift would change the stored mixtures and with
// them every waveform trace.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "signal/channel.h"
#include "signal/fast_normal.h"
#include "signal/msk.h"

namespace anc::signal {
namespace {

// --- references ------------------------------------------------------------

// Per-sample cos/sin of the running phase.
Buffer ReferenceModulate(const MskParams& params,
                         std::span<const std::uint8_t> bits) {
  const int s = params.samples_per_bit;
  const double step = M_PI / (2.0 * static_cast<double>(s));
  Buffer out;
  out.reserve(bits.size() * static_cast<std::size_t>(s));
  double phase = params.initial_phase;
  for (std::uint8_t bit : bits) {
    const double inc = (bit != 0) ? step : -step;
    for (int i = 0; i < s; ++i) {
      phase += inc;
      out.emplace_back(params.amplitude * std::cos(phase),
                       params.amplitude * std::sin(phase));
    }
  }
  return out;
}

// The detector with std::fmax/std::fmin and the per-sample n == 0 and
// bounds checks.
double ReferenceAtan2(double y, double x) {
  const double ax = std::fabs(x);
  const double ay = std::fabs(y);
  const double mx = std::fmax(ax, ay);
  const double mn = std::fmin(ax, ay);
  if (mx == 0.0) return 0.0;
  const double a = mn / mx;
  const double s = a * a;
  double r =
      ((-0.0464964749 * s + 0.15931422) * s - 0.327622764) * s * a + a;
  if (ay > ax) r = 1.57079632679489662 - r;
  if (x < 0.0) r = 3.14159265358979324 - r;
  if (y < 0.0) r = -r;
  return r;
}

std::vector<std::uint8_t> ReferenceDemodulate(std::span<const Sample> y,
                                              std::size_t num_bits,
                                              int samples_per_bit) {
  const auto s = static_cast<std::size_t>(samples_per_bit);
  std::vector<std::uint8_t> bits;
  for (std::size_t k = 0; k < num_bits; ++k) {
    double travel = 0.0;
    const std::size_t begin = k * s;
    const std::size_t end = begin + s;
    for (std::size_t n = begin; n < end && n < y.size(); ++n) {
      if (n == 0) continue;
      const double re =
          y[n].real() * y[n - 1].real() + y[n].imag() * y[n - 1].imag();
      const double im =
          y[n].imag() * y[n - 1].real() - y[n].real() * y[n - 1].imag();
      travel += ReferenceAtan2(im, re);
    }
    bits.push_back(travel > 0.0 ? 1 : 0);
  }
  return bits;
}

// --- helpers ---------------------------------------------------------------

bool SameBits(std::span<const Sample> a, std::span<const Sample> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(Sample)) == 0);
}

std::vector<std::uint8_t> RandomBits(std::size_t n, anc::Pcg32& rng) {
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

Buffer NoisyFrame(anc::Pcg32& rng, double snr_db) {
  MskModulator mod(MskParams{8, 1.0, 0.0});
  Buffer y = ApplyChannel(mod.Modulate(RandomBits(104, rng)),
                          RandomChannel(rng, 0.3, 2.0));
  AddAwgn(y, NoisePowerForSnrDb(1.0, snr_db), rng);
  return y;
}

// --- modulation ------------------------------------------------------------

class TableModulation : public ::testing::TestWithParam<int> {};

TEST_P(TableModulation, MatchesPerSampleCosSinAcrossFramesSharingOneTable) {
  const int s = GetParam();
  const MskParams params{s, 1.7, 0.4375};
  MskModulator table(params);
  anc::Pcg32 rng(900 + static_cast<std::uint64_t>(s));
  std::size_t samples = 0;
  for (int frame = 0; frame < 2000; ++frame) {
    // Mostly full report frames, with some short and empty ones.
    const std::size_t n_bits =
        frame % 10 == 0 ? rng.UniformBelow(20) : 104;
    const auto bits = RandomBits(n_bits, rng);
    const Buffer want = ReferenceModulate(params, bits);
    ASSERT_TRUE(SameBits(table.Modulate(bits), want))
        << "samples_per_bit=" << s << " frame=" << frame;
    samples += want.size();
  }
  // One node per distinct phase double: the frames revisit the same few
  // (126 at S = 1 up to ~3.2k at S = 16), against ~187k * S samples.
  EXPECT_LT(50 * table.table_size(), samples);
}

INSTANTIATE_TEST_SUITE_P(SamplesPerBit, TableModulation,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(TableModulation, ModulateIntoWritesInPlace) {
  const MskParams params{8, 0.75, -1.25};
  MskModulator table(params);
  anc::Pcg32 rng(31);
  const auto bits = RandomBits(64, rng);
  Buffer out(bits.size() * 8, Sample{9.0, 9.0});
  table.ModulateInto(bits, out);
  EXPECT_TRUE(SameBits(out, ReferenceModulate(params, bits)));
}

// --- demodulation ----------------------------------------------------------

TEST(SelectDemodulator, MatchesReferenceOnNoisyFrames) {
  anc::Pcg32 rng(41);
  const MskDemodulator demod(8);
  std::vector<std::uint8_t> bits;
  for (int trial = 0; trial < 300; ++trial) {
    // From clean to noise-dominated, so every octant and sign is hit.
    const double snr_db = -5.0 + 35.0 * (trial % 8) / 7.0;
    const Buffer y = NoisyFrame(rng, snr_db);
    demod.DemodulateInto(y, 104, &bits);
    const auto want = ReferenceDemodulate(y, 104, 8);
    ASSERT_EQ(bits.size(), want.size());
    ASSERT_EQ(std::memcmp(bits.data(), want.data(), bits.size()), 0)
        << "trial " << trial;
  }
}

TEST(SelectDemodulator, MatchesReferenceOnEdgeInputs) {
  // Signed zeros, equal |re| and |im|, subnormals and tiny/huge finite
  // magnitudes (kept small enough that no product overflows).
  const double values[] = {0.0,      -0.0,     1.0,          -1.0,
                           0.5,      -2.0,     DBL_MIN,      -DBL_MIN,
                           4.9e-324, -4.9e-324, DBL_MIN / 8, 1e100,
                           -1e-100,  3.0};
  constexpr std::size_t kValues = sizeof values / sizeof values[0];
  anc::Pcg32 rng(43);
  for (int spb : {1, 2, 8}) {
    const MskDemodulator demod(spb);
    std::vector<std::uint8_t> bits;
    for (int trial = 0; trial < 400; ++trial) {
      const std::size_t num_bits = 1 + rng.UniformBelow(24);
      // Sometimes shorter than num_bits * spb: trailing bits see no
      // samples.
      const std::size_t n = num_bits * static_cast<std::size_t>(spb) -
                            (trial % 5 == 0 ? rng.UniformBelow(spb + 1) : 0);
      Buffer y(n);
      for (Sample& v : y) {
        v = Sample{values[rng.UniformBelow(kValues)],
                   values[rng.UniformBelow(kValues)]};
      }
      demod.DemodulateInto(y, num_bits, &bits);
      const auto want = ReferenceDemodulate(y, num_bits, spb);
      ASSERT_EQ(bits, want) << "spb=" << spb << " trial " << trial;
    }
  }
}

// --- channel ---------------------------------------------------------------

TEST(ChannelKernel, StaticRotationMatchesComplexMultiply) {
  anc::Pcg32 rng(47);
  for (int trial = 0; trial < 200; ++trial) {
    Buffer x(1 + rng.UniformBelow(900));
    for (Sample& v : x) {
      v = Sample{4.0 * rng.UniformDouble() - 2.0,
                 4.0 * rng.UniformDouble() - 2.0};
    }
    x[0] = Sample{-0.0, 0.0};
    const ChannelParams ch = RandomChannel(rng, 0.1, 3.0);
    const Sample h{ch.gain * std::cos(ch.phase), ch.gain * std::sin(ch.phase)};
    Buffer want(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) want[i] = x[i] * h;

    Buffer out(x.size());
    ApplyChannelInto(x, ch, out);
    ASSERT_TRUE(SameBits(out, want)) << "trial " << trial;
    ApplyChannelInto(x, ch, x);  // in place
    ASSERT_TRUE(SameBits(x, want)) << "in place, trial " << trial;
  }
}

// --- noise -----------------------------------------------------------------

TEST(NoiseKernel, AddAwgnMatchesReferenceLoopAndGeneratorState) {
  anc::Pcg32 rng(53);
  for (int trial = 0; trial < 50; ++trial) {
    Buffer y = NoisyFrame(rng, 20.0);
    const double noise_power = trial % 10 == 0 ? 0.0 : 0.01 * (trial + 1);
    anc::Pcg32 ours = rng.Split();
    anc::Pcg32 ref = ours;
    Buffer want = y;
    if (noise_power > 0.0) {
      const double sigma = std::sqrt(noise_power / 2.0);
      for (Sample& s : want) {
        s += Sample{sigma * FastNormal(ref), sigma * FastNormal(ref)};
      }
    }
    AddAwgn(y, noise_power, ours);
    ASSERT_TRUE(SameBits(y, want)) << "trial " << trial;
    const Pcg32::State a = ours.SaveState();
    const Pcg32::State b = ref.SaveState();
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.inc, b.inc);
    EXPECT_EQ(a.has_cached_normal, b.has_cached_normal);
    EXPECT_EQ(ours(), ref());
  }
}

}  // namespace
}  // namespace anc::signal
