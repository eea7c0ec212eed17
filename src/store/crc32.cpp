#include "store/crc32.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ANC_CRC32_PCLMUL 1
#include <immintrin.h>
#endif

namespace anc::store {
namespace {

// Slice-by-16 tables: kTables[0] is the classic bytewise table; entry i
// of kTables[k] is the CRC contribution of byte i followed by k zero
// bytes, so sixteen input bytes fold into the register with sixteen
// lookups.
using Table = std::array<std::uint32_t, 256>;
constexpr std::size_t kSlices = 16;

constexpr std::array<Table, kSlices> MakeTables() {
  std::array<Table, kSlices> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < kSlices; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr auto kTables = MakeTables();

// Little-endian load; compilers fold it into one unaligned 32-bit read.
inline std::uint32_t Load32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// The contribution of the four bytes of `w`, the first of them `first`
// bytes from the end of a 16-byte stride.
inline std::uint32_t Fold4(std::uint32_t w, std::size_t first) {
  const auto& t = kTables;
  return t[first][w & 0xFF] ^ t[first - 1][(w >> 8) & 0xFF] ^
         t[first - 2][(w >> 16) & 0xFF] ^ t[first - 3][w >> 24];
}

// Runs the `n` bytes at `p` through the register `c` (held inverted, as
// the kernels below hold it too).
std::uint32_t SliceBy16(const unsigned char* p, std::size_t n,
                        std::uint32_t c) {
  const auto& t = kTables;
  for (; n >= kSlices; p += kSlices, n -= kSlices) {
    c = Fold4(c ^ Load32(p), 15) ^ Fold4(Load32(p + 4), 11) ^
        Fold4(Load32(p + 8), 7) ^ Fold4(Load32(p + 12), 3);
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#ifdef ANC_CRC32_PCLMUL

// The folding kernel needs four lanes to start.
constexpr std::size_t kFoldMin = 64;

// Multiplies both 64-bit halves of `x` by the matching half of `k` and
// adds (xors) the two products into `next`.
__attribute__((target("pclmul"))) inline __m128i Fold(__m128i x, __m128i k,
                                                      __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Runs the `n` bytes at `p` (n >= 64, a multiple of 16) through the
// register `c`. Four 128-bit lanes are folded 64 bytes ahead with k1/k2
// (x^(4*128+32) and x^(4*128-32) mod P, bit-reflected), then into one
// lane with k3/k4, 16 bytes at a time; k5 folds 128 bits to 64 and a
// Barrett reduction (P' = x^64 / P, and P) leaves the 32-bit register.
// The constants are Gopal et al.'s, bit-reflected for 0xEDB88320.
__attribute__((target("pclmul"))) std::uint32_t FoldPclmul(
    const unsigned char* p, std::size_t n, std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, k3k4, Load128(p));

  // 128 -> 64 bits, then 64 -> 32 + 32 zero bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to the 32-bit register (bits 32..63 of x1).
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

bool HasPclmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return has;
}

#endif  // ANC_CRC32_PCLMUL

}  // namespace

std::uint32_t Crc32(std::string_view bytes, std::uint32_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef ANC_CRC32_PCLMUL
  if (n >= kFoldMin && HasPclmul()) {
    const std::size_t folded = n & ~std::size_t{15};
    c = FoldPclmul(p, folded, c);
    p += folded;
    n -= folded;
  }
#endif
  return SliceBy16(p, n, c) ^ 0xFFFFFFFFu;
}

namespace detail {

std::uint32_t Crc32Portable(std::string_view bytes, std::uint32_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  return SliceBy16(p, bytes.size(), seed ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

}  // namespace detail
}  // namespace anc::store
