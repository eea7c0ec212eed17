#include "store/crc32.h"

#include <array>

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

}  // namespace

std::uint32_t Crc32(std::string_view bytes, std::uint32_t seed) {
  const auto& t = kTables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= kSlices; p += kSlices, n -= kSlices) {
    c = Fold4(c ^ Load32(p), 15) ^ Fold4(Load32(p + 4), 11) ^
        Fold4(Load32(p + 8), 7) ^ Fold4(Load32(p + 12), 3);
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace anc::store
