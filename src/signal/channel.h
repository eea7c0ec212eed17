// Channel model for tag -> reader links.
//
// Section II-B of the paper models the received constituent as
// h' A_s e^{i(theta_s[n] + gamma')}: a per-link attenuation and phase
// rotation. Tags are static during a reading run (Section IV-E), so each
// tag keeps one ChannelParams for the whole run — this is exactly the
// property that lets the reader subtract a singleton-slot waveform from an
// earlier mixed signal. AWGN is added at the reader front-end.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.h"
#include "signal/complex_buffer.h"

namespace anc::signal {

struct ChannelParams {
  double gain = 1.0;           // h: amplitude attenuation
  double phase = 0.0;          // gamma: carrier phase rotation (radians)
  double cfo_per_sample = 0.0; // residual carrier-frequency offset (rad/sample)
};

// Returns the channel-transformed copy of x.
Buffer ApplyChannel(std::span<const Sample> x, const ChannelParams& params);

// Channel-transforms x into `out`, which must hold x.size() samples and
// may be x itself (in place) — the allocation-free hot-path variant.
void ApplyChannelInto(std::span<const Sample> x, const ChannelParams& params,
                      std::span<Sample> out);

// Adds circularly-symmetric complex Gaussian noise of total power
// `noise_power` = E|n|^2 to y in place. Draws per sample via the ziggurat
// sampler (signal/fast_normal.h), two normals per sample.
void AddAwgn(std::span<Sample> y, double noise_power, anc::Pcg32& rng);

// Noise power that yields the given SNR (dB) for a signal of power
// `signal_power`.
double NoisePowerForSnrDb(double signal_power, double snr_db);

// Draws random per-tag channel parameters: gain log-uniform in
// [min_gain, max_gain], phase uniform in [0, 2pi).
ChannelParams RandomChannel(anc::Pcg32& rng, double min_gain = 0.5,
                            double max_gain = 1.5);

}  // namespace anc::signal
