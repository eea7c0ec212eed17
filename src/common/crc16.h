// CRC-16-CCITT (polynomial 0x1021), the checksum family used by ISO 18000-6
// class tags. The paper's tag IDs are "96 bits (including the 16 bits CRC
// code)"; TagId computes it over the 10 payload bytes, MSB first, which
// equals the bit-serial CRC over the 80 transmitted payload bits.
#pragma once

#include <cstdint>
#include <span>

namespace anc {

// Computes CRC-16-CCITT over a byte span. `init` is the shift-register
// preset; ISO 18000-6 uses 0xFFFF.
std::uint16_t Crc16(std::span<const std::uint8_t> data,
                    std::uint16_t init = 0xFFFF);

}  // namespace anc
