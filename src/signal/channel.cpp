#include "signal/channel.h"

#include <cmath>

#include "signal/fast_normal.h"

namespace anc::signal {

Buffer ApplyChannel(std::span<const Sample> x, const ChannelParams& params) {
  Buffer out(x.size());
  ApplyChannelInto(x, params, out);
  return out;
}

void ApplyChannelInto(std::span<const Sample> x, const ChannelParams& params,
                      std::span<Sample> out) {
  Sample* dst = out.data();
  if (params.cfo_per_sample == 0.0) {
    // Static rotation: one complex constant, a pure vectorizable scale.
    // Written as the real products std::complex's operator* computes
    // (same operands, same order), without its NaN-recovery branch into
    // libgcc, which kept the loop scalar; identical bits for finite input.
    const double c = params.gain * std::cos(params.phase);
    const double d = params.gain * std::sin(params.phase);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double a = x[i].real();
      const double b = x[i].imag();
      dst[i] = Sample{a * c - b * d, a * d + b * c};
    }
    return;
  }
  double phase = params.phase;
  for (std::size_t i = 0; i < x.size(); ++i) {
    dst[i] = x[i] * Sample{params.gain * std::cos(phase),
                           params.gain * std::sin(phase)};
    phase += params.cfo_per_sample;
  }
}

void AddAwgn(std::span<Sample> y, double noise_power, anc::Pcg32& rng) {
  if (noise_power <= 0.0) return;
  // Per-dimension variance: E|n|^2 = 2 * var(dim).
  const double sigma = std::sqrt(noise_power / 2.0);
  // Draw from a local copy so the generator state stays in registers
  // instead of a store and reload through `rng` on every draw; the
  // stream is the same and is written back at the end.
  anc::Pcg32 local = rng;
  for (Sample& s : y) {
    s += Sample{sigma * FastNormal(local), sigma * FastNormal(local)};
  }
  rng = local;
}

double NoisePowerForSnrDb(double signal_power, double snr_db) {
  return signal_power / std::pow(10.0, snr_db / 10.0);
}

ChannelParams RandomChannel(anc::Pcg32& rng, double min_gain,
                            double max_gain) {
  ChannelParams params;
  const double log_lo = std::log(min_gain);
  const double log_hi = std::log(max_gain);
  params.gain = std::exp(log_lo + (log_hi - log_lo) * rng.UniformDouble());
  params.phase = 2.0 * M_PI * rng.UniformDouble();
  return params;
}

}  // namespace anc::signal
