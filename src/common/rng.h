// Deterministic random number generation for the simulator.
//
// PCG32 (O'Neill 2014): small state, excellent statistical quality, and —
// unlike std::mt19937 + std::*_distribution — fully reproducible across
// standard-library implementations, which matters because every experiment
// in EXPERIMENTS.md is keyed by a seed.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/serialize.h"

namespace anc {

class Pcg32 {
 public:
  using result_type = std::uint32_t;

  explicit Pcg32(std::uint64_t seed = 0x853C49E6748FEA9BULL,
                 std::uint64_t stream = 0xDA3E39CB94B95BDBULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  // Defined inline (with UniformDouble): the waveform noise kernel draws
  // twice per sample, and an out-of-line call keeps the state in memory.
  result_type operator()() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
    const auto rot = static_cast<std::uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
  }

  // Uniform integer in [0, bound) without modulo bias (Lemire rejection).
  std::uint32_t UniformBelow(std::uint32_t bound);

  // Uniform double in [0, 1).
  double UniformDouble() {
    // 53 random bits into [0, 1).
    const std::uint64_t hi = operator()();
    const std::uint64_t lo = operator()();
    const std::uint64_t bits53 = ((hi << 32) | lo) >> 11;
    return static_cast<double>(bits53) * 0x1.0p-53;
  }

  // Standard normal via Box-Muller (cached second value).
  double Normal();

  // Binomial(n, p) sample. Uses direct inversion for small n*p and a
  // normal approximation with continuity correction plus clamping for large
  // n*p; both paths are exercised by tests against analytic moments.
  std::uint64_t Binomial(std::uint64_t n, double p);

  // Fork a statistically independent generator (distinct stream).
  Pcg32 Split();

  // Exact generator state, for service checkpoints: a restored generator
  // continues the identical output stream (including the cached
  // Box-Muller half-sample).
  struct State {
    std::uint64_t state = 0;
    std::uint64_t inc = 0;
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };
  State SaveState() const {
    return State{state_, inc_, has_cached_normal_, cached_normal_};
  }
  void RestoreState(const State& s) {
    state_ = s.state;
    inc_ = s.inc;
    has_cached_normal_ = s.has_cached_normal;
    cached_normal_ = s.cached_normal;
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

// Checkpoint codec for the generator state (common/serialize.h wire
// format), shared by every layer that snapshots an RNG stream.
inline void PutPcg32(std::string& out, const Pcg32& rng) {
  const Pcg32::State s = rng.SaveState();
  ser::PutVarint(out, s.state);
  ser::PutVarint(out, s.inc);
  ser::PutBool(out, s.has_cached_normal);
  ser::PutF64(out, s.cached_normal);
}

inline bool ReadPcg32(ser::Reader& r, Pcg32& rng) {
  Pcg32::State s;
  s.state = r.Varint();
  s.inc = r.Varint();
  s.has_cached_normal = r.Bool();
  s.cached_normal = r.F64();
  if (!r.ok) return false;
  rng.RestoreState(s);
  return true;
}

}  // namespace anc
