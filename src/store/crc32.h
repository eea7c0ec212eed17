// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-block
// and footer integrity check of the trace store container. The trace
// layer's CRC-16/CCITT (common/crc16.h) models the over-the-air tag CRC;
// this one guards on-disk bytes, where the 16-bit variant's collision
// rate over 64 KiB blocks would be too weak. Slice-by-16: sixteen table
// lookups per sixteen input bytes, the same values as the bytewise loop.
// `seed` chains: Crc32(b, Crc32(a)) == Crc32(a + b).
#pragma once

#include <cstdint>
#include <string_view>

namespace anc::store {

std::uint32_t Crc32(std::string_view bytes, std::uint32_t seed = 0);

}  // namespace anc::store
