// 96-bit tag identifiers, as used by EPC GEN2-class tags and by the paper
// ("the ID length [is] 96 bits (including the 16 bits CRC code)").
//
// A TagId is an 80-bit payload plus the CRC-16 of that payload; the full
// 96-bit string is what a tag transmits in a report segment, and the reader
// validates the trailing CRC to distinguish a clean singleton slot from a
// collision slot (Section III-B of the paper).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace anc {

class TagId {
 public:
  static constexpr int kPayloadBits = 80;
  static constexpr int kCrcBits = 16;
  static constexpr int kTotalBits = kPayloadBits + kCrcBits;  // 96

  TagId() = default;

  // Builds a TagId from an 80-bit payload given as (hi 16 bits, lo 64 bits).
  // The CRC is computed over the payload.
  static TagId FromPayload(std::uint16_t payload_hi, std::uint64_t payload_lo);

  // Reconstructs a TagId from a 96-bit stream (MSB first, one 0/1 entry per
  // bit). Returns false if the trailing CRC does not match the payload
  // (channel-corrupted ID).
  static bool FromBits(std::span<const std::uint8_t> bits, TagId* out);

  std::uint16_t payload_hi() const { return payload_hi_; }
  std::uint64_t payload_lo() const { return payload_lo_; }
  std::uint16_t crc() const { return crc_; }

  // Serializes the full 96-bit ID, MSB first (what goes on the air).
  std::vector<std::uint8_t> ToBits() const;

  // A compact 64-bit digest usable as a hash-map key and as the seed input
  // to the per-slot report hash H(ID|i).
  std::uint64_t Digest() const;

  std::string ToHex() const;

  friend auto operator<=>(const TagId&, const TagId&) = default;

 private:
  std::uint16_t payload_hi_ = 0;
  std::uint64_t payload_lo_ = 0;
  std::uint16_t crc_ = 0;
};

}  // namespace anc

template <>
struct std::hash<anc::TagId> {
  std::size_t operator()(const anc::TagId& id) const noexcept {
    return static_cast<std::size_t>(id.Digest());
  }
};
