// Ziggurat standard-normal sampler (Marsaglia & Tsang 2000), used by the
// AWGN kernel. Pcg32::Normal() is Box-Muller — one log, one sqrt and a
// sin/cos pair per two draws — which made noise generation the single
// largest cost of a SignalPhy slot (two draws per sample). The ziggurat
// accepts ~98.8% of draws with one 32-bit RNG output, one table lookup and
// one multiply.
//
// Pcg32::Normal() itself is left untouched: Binomial()'s normal-
// approximation path feeds the engine's transmitter selection, and
// changing its draw sequence would invalidate the committed golden
// traces. Only the signal layer uses this sampler; its draws are pinned
// byte-wise by tests/golden/fcat_signal_smoke.ancs, so the table and
// the draw order below must not change.
//
// Determinism: table construction and the sampler use only exp/log/sqrt
// and IEEE double arithmetic in a fixed order, so draws are reproducible
// across compilers on the same libm, like the rest of the signal chain.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/rng.h"

namespace anc::signal {

namespace detail {

struct ZigguratTables {
  std::uint32_t kn[128];
  double wn[128];
  double fn[128];

  ZigguratTables() {
    constexpr double m1 = 2147483648.0;  // 2^31: |hz| spans the layer
    double dn = 3.442619855899;          // right edge of the base layer
    const double tn0 = dn;
    constexpr double vn = 9.91256303526217e-3;  // area per layer

    double q = vn / std::exp(-0.5 * dn * dn);
    kn[0] = static_cast<std::uint32_t>((dn / q) * m1);
    kn[1] = 0;
    wn[0] = q / m1;
    wn[127] = dn / m1;
    fn[0] = 1.0;
    fn[127] = std::exp(-0.5 * dn * dn);
    double tn = tn0;
    for (int i = 126; i >= 1; --i) {
      dn = std::sqrt(-2.0 * std::log(vn / dn + std::exp(-0.5 * dn * dn)));
      kn[i + 1] = static_cast<std::uint32_t>((dn / tn) * m1);
      tn = dn;
      fn[i] = std::exp(-0.5 * dn * dn);
      wn[i] = dn / m1;
    }
  }
};

inline const ZigguratTables& Ziggurat() {
  static const ZigguratTables tables;
  return tables;
}

}  // namespace detail

// One standard-normal draw. Consumes one 32-bit output of `rng` on the
// fast path, more on wedge/tail rejections (~1.2% of draws).
inline double FastNormal(anc::Pcg32& rng) {
  const detail::ZigguratTables& t = detail::Ziggurat();
  constexpr double r = 3.442619855899;
  auto hz = static_cast<std::int32_t>(rng());
  auto iz = static_cast<std::size_t>(hz & 127);
  for (;;) {
    // |hz| without signed-overflow UB on INT32_MIN.
    const auto mag = static_cast<std::uint32_t>(
        hz < 0 ? -static_cast<std::int64_t>(hz) : hz);
    if (mag < t.kn[iz]) return hz * t.wn[iz];

    const double x = hz * t.wn[iz];
    if (iz == 0) {
      // Tail beyond r: Marsaglia's exponential-rejection tail sampler.
      double xt;
      double yt;
      do {
        xt = -std::log(1.0 - rng.UniformDouble()) / r;
        yt = -std::log(1.0 - rng.UniformDouble());
      } while (yt + yt < xt * xt);
      return hz > 0 ? r + xt : -(r + xt);
    }
    if (t.fn[iz] + rng.UniformDouble() * (t.fn[iz - 1] - t.fn[iz]) <
        std::exp(-0.5 * x * x)) {
      return x;
    }
    hz = static_cast<std::int32_t>(rng());
    iz = static_cast<std::size_t>(hz & 127);
  }
}

}  // namespace anc::signal
