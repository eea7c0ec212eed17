#include "signal/msk.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace anc::signal {
namespace {

// atan2 via octant reduction plus a 7th-order minimax polynomial for
// atan on [0, 1]; max error ~1e-5 rad. The detector sums S phase steps
// of +-pi/(2S) per bit, so a 1e-5 perturbation never flips a decision
// that libm atan2 would make differently (verified bit-for-bit against
// libm across the 0-8 dB range in development); it is ~3x faster, and
// the demodulator is the hottest kernel the resolver runs. The max/min
// are selects rather than std::fmax/std::fmin, which are out-of-line
// libm calls on baseline x86-64; both agree for every non-NaN input
// (ax and ay are never -0, so a tie returns the same bits either way).
inline double FastAtan2(double y, double x) {
  const double ax = std::fabs(x);
  const double ay = std::fabs(y);
  const double mx = ax > ay ? ax : ay;
  const double mn = ax > ay ? ay : ax;
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

std::uint64_t BitsOf(double phase) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &phase, sizeof bits);
  return bits;
}

// Fibonacci hashing: the high bits of the product mix every key bit.
std::size_t Slot(std::uint64_t bits, std::size_t mask) {
  return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >> 32) &
         mask;
}

}  // namespace

MskModulator::MskModulator(MskParams params)
    : params_(params),
      step_(M_PI / (2.0 * static_cast<double>(params.samples_per_bit))),
      index_(256, kNoEdge) {
  NodeFor(params_.initial_phase);
}

std::uint32_t MskModulator::NodeFor(double phase) {
  const std::uint64_t bits = BitsOf(phase);
  std::size_t mask = index_.size() - 1;
  std::size_t i = Slot(bits, mask);
  for (; index_[i] != kNoEdge; i = (i + 1) & mask) {
    if (BitsOf(phases_[index_[i]]) == bits) return index_[i];
  }
  const auto node = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{Sample{params_.amplitude * std::cos(phase),
                               params_.amplitude * std::sin(phase)}});
  phases_.push_back(phase);
  index_[i] = node;
  if (2 * nodes_.size() > index_.size()) {
    // Keep the load at most one half: rebuild at twice the size.
    index_.assign(2 * index_.size(), kNoEdge);
    mask = index_.size() - 1;
    for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
      std::size_t j = Slot(BitsOf(phases_[n]), mask);
      while (index_[j] != kNoEdge) j = (j + 1) & mask;
      index_[j] = n;
    }
  }
  return node;
}

std::uint32_t MskModulator::AddEdge(std::uint32_t from, unsigned bit) {
  const double inc = (bit != 0) ? step_ : -step_;
  const std::uint32_t to = NodeFor(phases_[from] + inc);
  nodes_[from].next[bit] = to;
  return to;
}

void MskModulator::ModulateInto(std::span<const std::uint8_t> bits,
                                std::span<Sample> out) {
  const int s = params_.samples_per_bit;
  Sample* dst = out.data();
  const Node* nodes = nodes_.data();
  std::uint32_t node = 0;  // the start phase
  for (std::uint8_t bit : bits) {
    const unsigned b = bit != 0 ? 1 : 0;
    for (int i = 0; i < s; ++i) {
      std::uint32_t next = nodes[node].next[b];
      if (next == kNoEdge) {
        next = AddEdge(node, b);
        nodes = nodes_.data();  // AddEdge may have grown the table
      }
      node = next;
      *dst++ = nodes[node].value;
    }
  }
}

Buffer MskModulator::Modulate(std::span<const std::uint8_t> bits) {
  Buffer out(bits.size() *
             static_cast<std::size_t>(std::max(params_.samples_per_bit, 0)));
  ModulateInto(bits, out);
  return out;
}

std::vector<std::uint8_t> MskDemodulator::Demodulate(
    std::span<const Sample> y, std::size_t num_bits) const {
  std::vector<std::uint8_t> bits;
  DemodulateInto(y, num_bits, &bits);
  return bits;
}

void MskDemodulator::DemodulateInto(std::span<const Sample> y,
                                    std::size_t num_bits,
                                    std::vector<std::uint8_t>* bits) const {
  const auto s = static_cast<std::size_t>(samples_per_bit_);
  bits->clear();
  bits->reserve(num_bits);
  for (std::size_t k = 0; k < num_bits; ++k) {
    double travel = 0.0;
    // The first sample of the whole buffer has no predecessor; skipping
    // one of S phase differences only slightly weakens bit 0, which the
    // codec covers with a preamble.
    const std::size_t begin = std::max<std::size_t>(k * s, 1);
    const std::size_t end = std::min(k * s + s, y.size());
    for (std::size_t n = begin; n < end; ++n) {
      // Phase step via y[n] conj(y[n-1]), accumulated in sample order.
      const double re =
          y[n].real() * y[n - 1].real() + y[n].imag() * y[n - 1].imag();
      const double im =
          y[n].imag() * y[n - 1].real() - y[n].real() * y[n - 1].imag();
      travel += FastAtan2(im, re);
    }
    bits->push_back(travel > 0.0 ? 1 : 0);
  }
}

}  // namespace anc::signal
