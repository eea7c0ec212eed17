#include "common/tag_id.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.h"
#include "crc16_reference.h"

namespace anc {
namespace {

TEST(TagId, RoundTripThroughBits) {
  Pcg32 rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const auto hi = static_cast<std::uint16_t>(rng() & 0xFFFF);
    const std::uint64_t lo = (static_cast<std::uint64_t>(rng()) << 32) | rng();
    const TagId id = TagId::FromPayload(hi, lo);

    const auto bits = id.ToBits();
    ASSERT_EQ(bits.size(), 96u);

    TagId decoded;
    ASSERT_TRUE(TagId::FromBits(bits, &decoded));
    EXPECT_EQ(decoded, id);
    EXPECT_EQ(decoded.crc(), id.crc());
  }
}

// The byte-wise ID checksum equals the bit-serial CRC over the 80 payload
// bits as transmitted, MSB first.
TEST(TagId, CrcMatchesBitSerialReference) {
  const auto check = [](std::uint16_t hi, std::uint64_t lo) {
    std::vector<std::uint8_t> bits;
    testing_ref::AppendBits(bits, hi, 16);
    testing_ref::AppendBits(bits, lo, 64);
    ASSERT_EQ(TagId::FromPayload(hi, lo).crc(),
              testing_ref::BitSerialCrc16(bits))
        << std::hex << hi << " " << lo;
  };
  check(0, 0);
  check(0xFFFF, ~std::uint64_t{0});
  Pcg32 rng(23);
  for (int trial = 0; trial < 100000; ++trial) {
    const auto hi = static_cast<std::uint16_t>(rng() & 0xFFFF);
    const std::uint64_t lo = (static_cast<std::uint64_t>(rng()) << 32) | rng();
    check(hi, lo);
  }
}

TEST(TagId, CorruptedBitsRejected) {
  const TagId id = TagId::FromPayload(0xABCD, 0x0123456789ABCDEFULL);
  auto bits = id.ToBits();
  for (std::size_t flip = 0; flip < bits.size(); flip += 5) {
    bits[flip] ^= 1;
    TagId decoded;
    EXPECT_FALSE(TagId::FromBits(bits, &decoded));
    bits[flip] ^= 1;
  }
}

TEST(TagId, WrongLengthRejected) {
  TagId decoded;
  EXPECT_FALSE(TagId::FromBits(std::vector<std::uint8_t>(95, 0), &decoded));
  EXPECT_FALSE(TagId::FromBits(std::vector<std::uint8_t>(97, 0), &decoded));
}

TEST(TagId, DigestsAreDistinct) {
  Pcg32 rng(11);
  std::unordered_set<std::uint64_t> digests;
  for (int trial = 0; trial < 10000; ++trial) {
    const auto hi = static_cast<std::uint16_t>(rng() & 0xFFFF);
    const std::uint64_t lo = (static_cast<std::uint64_t>(rng()) << 32) | rng();
    digests.insert(TagId::FromPayload(hi, lo).Digest());
  }
  // Collisions in a 64-bit digest over 10k random IDs are ~negligible.
  EXPECT_GE(digests.size(), 9999u);
}

TEST(TagId, ComparisonAndHash) {
  const TagId a = TagId::FromPayload(1, 2);
  const TagId b = TagId::FromPayload(1, 2);
  const TagId c = TagId::FromPayload(1, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(std::hash<TagId>{}(a), std::hash<TagId>{}(b));
}

TEST(TagId, HexFormat) {
  const TagId id = TagId::FromPayload(0x00AB, 0x1ULL);
  const std::string hex = id.ToHex();
  EXPECT_EQ(hex.substr(0, 4), "00ab");
  EXPECT_NE(hex.find('.'), std::string::npos);
}

}  // namespace
}  // namespace anc
