// Bit-serial CRC-16-CCITT (polynomial 0x1021, MSB first), written
// independently of common/crc16 as the reference its byte-table CRC and
// TagId's ID checksum are checked against. Each entry of `bits` is one
// bit (0 or 1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace anc::testing_ref {

inline std::uint16_t BitSerialCrc16(std::span<const std::uint8_t> bits,
                                    std::uint16_t init = 0xFFFF) {
  std::uint16_t crc = init;
  for (std::uint8_t bit : bits) {
    const bool msb = (crc & 0x8000) != 0;
    crc = static_cast<std::uint16_t>(crc << 1);
    if (msb != (bit != 0)) crc ^= 0x1021;
  }
  return crc;
}

// Appends `value`'s low `width` bits, MSB first.
inline void AppendBits(std::vector<std::uint8_t>& bits, std::uint64_t value,
                       int width) {
  for (int i = width - 1; i >= 0; --i) {
    bits.push_back(static_cast<std::uint8_t>((value >> i) & 1));
  }
}

// Appends the 16-bit CRC of `bits` to them, MSB first.
inline void AppendCrc16(std::vector<std::uint8_t>& bits) {
  AppendBits(bits, BitSerialCrc16(bits), 16);
}

// True when `bits` = payload followed by its 16-bit CRC (MSB first).
inline bool Crc16Valid(std::span<const std::uint8_t> bits) {
  if (bits.size() < 16) return false;
  const std::size_t payload_len = bits.size() - 16;
  std::uint16_t got = 0;
  for (std::size_t i = payload_len; i < bits.size(); ++i) {
    got = static_cast<std::uint16_t>((got << 1) | (bits[i] & 1));
  }
  return BitSerialCrc16(bits.first(payload_len)) == got;
}

}  // namespace anc::testing_ref
