// Minimum Shift Keying modulator / demodulator.
//
// ANC (Katti et al., SIGCOMM'07) is built on MSK: a bit '1' is a phase
// advance of +pi/2 over one bit interval, a bit '0' a phase retreat of
// -pi/2 (Section II-B of the paper). With S samples per bit the per-sample
// increment is +-pi/(2S); the signal is constant-envelope, which is what
// makes the energy-equation amplitude separation of the mixed signal work.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "signal/complex_buffer.h"

namespace anc::signal {

struct MskParams {
  int samples_per_bit = 8;
  double amplitude = 1.0;
  double initial_phase = 0.0;
};

// Synthesis through a phase-walk table. The phase of sample n is the
// floating-point running sum initial_phase +- step +- step ..., so every
// frame walks the same small lattice of phase doubles (a few hundred
// across a whole population, against ~800 samples per frame). Each node
// of the table is one such double with its amplitude * (cos, sin) computed
// once, and a lazily created edge per bit value to the node `phase + inc`
// — the same addition the sample-by-sample loop performs, so the output
// is bit-identical to evaluating cos/sin at every sample. A sample then
// costs one edge hop and one load.
//
// The table grows as frames visit new phases, so Modulate is non-const:
// keep one modulator per thread and reuse it across frames.
class MskModulator {
 public:
  explicit MskModulator(MskParams params);

  // Writes bits.size() * samples_per_bit complex samples with continuous
  // phase across bit boundaries into `out`, which must hold exactly that
  // many.
  void ModulateInto(std::span<const std::uint8_t> bits,
                    std::span<Sample> out);
  [[nodiscard]] Buffer Modulate(std::span<const std::uint8_t> bits);

  const MskParams& params() const { return params_; }
  // Distinct phase values the table holds (the start phase included).
  std::size_t table_size() const { return nodes_.size(); }

 private:
  static constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};

  struct Node {
    Sample value;                            // amplitude * (cos, sin)
    std::uint32_t next[2] = {kNoEdge, kNoEdge};  // by bit value
  };

  // Returns the node for `phase`, creating it on first sight.
  std::uint32_t NodeFor(double phase);
  // Creates the edge from `from` for `bit` and returns its target.
  std::uint32_t AddEdge(std::uint32_t from, unsigned bit);

  MskParams params_;
  double step_;
  std::vector<Node> nodes_;
  std::vector<double> phases_;  // parallel to nodes_
  // Open-addressing index of nodes_ by the phase's bit pattern (linear
  // probing, power-of-two size, kNoEdge marks a free slot).
  std::vector<std::uint32_t> index_;
};

class MskDemodulator {
 public:
  explicit MskDemodulator(int samples_per_bit)
      : samples_per_bit_(samples_per_bit) {}

  // Non-coherent differential detection: for each bit interval, sums the
  // per-sample phase steps arg(y[n] conj(y[n-1])) and decides '1' when
  // the total is positive. Accumulating angles rather than the raw
  // products bounds each sample's contribution, so a noise outlier cannot
  // dominate the sum (an Im-only detector costs ~2x BER at 5 dB).
  // Amplitude-invariant, so it works unchanged on channel-scaled and on
  // residual (post-subtraction) signals.
  [[nodiscard]] std::vector<std::uint8_t> Demodulate(
      std::span<const Sample> y, std::size_t num_bits) const;

  // Allocation-free variant for hot paths: clears and refills `bits`.
  void DemodulateInto(std::span<const Sample> y, std::size_t num_bits,
                      std::vector<std::uint8_t>* bits) const;

  int samples_per_bit() const { return samples_per_bit_; }

 private:
  int samples_per_bit_;
};

}  // namespace anc::signal
