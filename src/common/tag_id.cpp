#include "common/tag_id.h"

#include <cstdio>

#include "common/crc16.h"
#include "common/hash.h"

namespace anc {
namespace {

void AppendBitsMsbFirst(std::vector<std::uint8_t>& bits, std::uint64_t value,
                        int width) {
  for (int i = width - 1; i >= 0; --i) {
    bits.push_back(static_cast<std::uint8_t>((value >> i) & 1));
  }
}

std::uint64_t ReadBitsMsbFirst(std::span<const std::uint8_t> bits,
                               std::size_t offset, int width) {
  std::uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    value = (value << 1) | (bits[offset + static_cast<std::size_t>(i)] & 1);
  }
  return value;
}

}  // namespace

TagId TagId::FromPayload(std::uint16_t payload_hi, std::uint64_t payload_lo) {
  TagId id;
  id.payload_hi_ = payload_hi;
  id.payload_lo_ = payload_lo;
  // The 80 payload bits as 10 bytes, MSB first: the byte-wise CRC over
  // them equals the bit-serial CRC over the transmitted bit stream.
  std::array<std::uint8_t, kPayloadBits / 8> bytes;
  bytes[0] = static_cast<std::uint8_t>(payload_hi >> 8);
  bytes[1] = static_cast<std::uint8_t>(payload_hi);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[2 + i] = static_cast<std::uint8_t>(payload_lo >> (56 - 8 * i));
  }
  id.crc_ = Crc16(bytes);
  return id;
}

bool TagId::FromBits(std::span<const std::uint8_t> bits, TagId* out) {
  if (bits.size() != static_cast<std::size_t>(kTotalBits)) return false;
  const auto hi = static_cast<std::uint16_t>(ReadBitsMsbFirst(bits, 0, 16));
  const std::uint64_t lo = ReadBitsMsbFirst(bits, 16, 64);
  const auto crc = static_cast<std::uint16_t>(ReadBitsMsbFirst(bits, 80, 16));
  const TagId id = FromPayload(hi, lo);
  if (id.crc() != crc) return false;
  *out = id;
  return true;
}

std::vector<std::uint8_t> TagId::ToBits() const {
  std::vector<std::uint8_t> bits;
  bits.reserve(kTotalBits);
  AppendBitsMsbFirst(bits, payload_hi_, 16);
  AppendBitsMsbFirst(bits, payload_lo_, 64);
  AppendBitsMsbFirst(bits, crc_, 16);
  return bits;
}

std::uint64_t TagId::Digest() const {
  return SplitMix64(payload_lo_ ^ (static_cast<std::uint64_t>(payload_hi_) << 48) ^
                    crc_);
}

std::string TagId::ToHex() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04x%016llx.%04x", payload_hi_,
                static_cast<unsigned long long>(payload_lo_), crc_);
  return buf;
}

}  // namespace anc
