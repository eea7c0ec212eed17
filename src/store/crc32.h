// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-block
// and footer integrity check of the trace store container, and the
// trailer of checkpoint and .slo files. The trace layer's CRC-16/CCITT
// (common/crc16.h) models the over-the-air tag CRC; this one guards
// on-disk bytes, where the 16-bit variant's collision rate over 64 KiB
// blocks would be too weak.
//
// Two implementations, the same values. On x86-64 CPUs with PCLMULQDQ,
// inputs of 64 bytes or more fold four 16-byte lanes at a time with
// carry-less multiplies (Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction", Intel 2009) and reduce to 32
// bits with a Barrett step; the CPU is checked once, on the first call.
// Everywhere else, and for short inputs and the last 0–15 bytes, the
// portable slice-by-16 loop runs: sixteen table lookups per sixteen
// input bytes. `seed` chains: Crc32(b, Crc32(a)) == Crc32(a + b).
#pragma once

#include <cstdint>
#include <string_view>

namespace anc::store {

std::uint32_t Crc32(std::string_view bytes, std::uint32_t seed = 0);

namespace detail {

// The slice-by-16 loop alone, whatever the CPU: the reference the folding
// kernel is tested against on a host that has it.
std::uint32_t Crc32Portable(std::string_view bytes, std::uint32_t seed = 0);

}  // namespace detail
}  // namespace anc::store
