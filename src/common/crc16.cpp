#include "common/crc16.h"

#include <array>

namespace anc {
namespace {

constexpr std::uint16_t kPoly = 0x1021;

constexpr std::array<std::uint16_t, 256> MakeTable() {
  std::array<std::uint16_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    std::uint16_t crc = static_cast<std::uint16_t>(i << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ kPoly)
                           : static_cast<std::uint16_t>(crc << 1);
    }
    table[static_cast<std::size_t>(i)] = crc;
  }
  return table;
}

constexpr std::array<std::uint16_t, 256> kTable = MakeTable();

}  // namespace

std::uint16_t Crc16(std::span<const std::uint8_t> data, std::uint16_t init) {
  std::uint16_t crc = init;
  for (std::uint8_t byte : data) {
    crc = static_cast<std::uint16_t>((crc << 8) ^
                                     kTable[((crc >> 8) ^ byte) & 0xFF]);
  }
  return crc;
}

}  // namespace anc
