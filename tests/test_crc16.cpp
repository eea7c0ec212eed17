#include "common/crc16.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "crc16_reference.h"

namespace anc {
namespace {

// The bit-stream cases run against the in-test bit-serial reference, which
// BitwiseMatchesBytewise ties to the library's byte-table Crc16.
using testing_ref::AppendCrc16;
using testing_ref::BitSerialCrc16;
using testing_ref::Crc16Valid;

TEST(Crc16, KnownVector) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const std::string s = "123456789";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(Crc16(bytes), 0x29B1);
}

TEST(Crc16, EmptyInputIsInit) {
  EXPECT_EQ(Crc16({}), 0xFFFF);
  EXPECT_EQ(BitSerialCrc16({}), 0xFFFF);
}

TEST(Crc16, BitwiseMatchesBytewise) {
  Pcg32 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> bytes;
    const int len = 1 + static_cast<int>(rng.UniformBelow(32));
    for (int i = 0; i < len; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(rng() & 0xFF));
    }
    std::vector<std::uint8_t> bits;
    for (std::uint8_t byte : bytes) {
      for (int b = 7; b >= 0; --b) {
        bits.push_back(static_cast<std::uint8_t>((byte >> b) & 1));
      }
    }
    EXPECT_EQ(Crc16(bytes), BitSerialCrc16(bits));
  }
}

TEST(Crc16, AppendThenValidate) {
  Pcg32 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> bits;
    const int len = 8 + static_cast<int>(rng.UniformBelow(120));
    for (int i = 0; i < len; ++i) {
      bits.push_back(static_cast<std::uint8_t>(rng() & 1));
    }
    AppendCrc16(bits);
    EXPECT_TRUE(Crc16Valid(bits));
  }
}

TEST(Crc16, SingleBitErrorDetected) {
  std::vector<std::uint8_t> bits;
  for (int i = 0; i < 80; ++i) {
    bits.push_back(static_cast<std::uint8_t>((i * 7) & 1));
  }
  AppendCrc16(bits);
  for (std::size_t flip = 0; flip < bits.size(); ++flip) {
    bits[flip] ^= 1;
    EXPECT_FALSE(Crc16Valid(bits)) << "undetected flip at " << flip;
    bits[flip] ^= 1;
  }
}

TEST(Crc16, TooShortIsInvalid) {
  std::vector<std::uint8_t> bits(15, 1);
  EXPECT_FALSE(Crc16Valid(bits));
}

}  // namespace
}  // namespace anc
