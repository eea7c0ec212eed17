#include "sim/population.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "common/serialize.h"
#include "store/crc32.h"

namespace anc::sim {
namespace {

TEST(Population, RequestedSize) {
  anc::Pcg32 rng(1);
  EXPECT_EQ(MakePopulation(0, rng).size(), 0u);
  EXPECT_EQ(MakePopulation(1, rng).size(), 1u);
  EXPECT_EQ(MakePopulation(5000, rng).size(), 5000u);
}

TEST(Population, AllUnique) {
  anc::Pcg32 rng(2);
  const auto pop = MakePopulation(20000, rng);
  std::unordered_set<TagId> seen(pop.begin(), pop.end());
  EXPECT_EQ(seen.size(), pop.size());
}

TEST(Population, ValidCrcs) {
  anc::Pcg32 rng(3);
  for (const TagId& id : MakePopulation(100, rng)) {
    TagId decoded;
    EXPECT_TRUE(TagId::FromBits(id.ToBits(), &decoded));
    EXPECT_EQ(decoded, id);
  }
}

TEST(Population, SeedDeterminism) {
  anc::Pcg32 a(7), b(7), c(8);
  const auto pa = MakePopulation(100, a);
  const auto pb = MakePopulation(100, b);
  const auto pc = MakePopulation(100, c);
  EXPECT_EQ(pa, pb);
  EXPECT_NE(pa, pc);
}

// Every field of every ID, in order, at a fixed seed: the draw order, the
// duplicate rule and the ID checksum cannot drift without this failing.
TEST(Population, PinnedDigest) {
  anc::Pcg32 rng(1);
  std::string bytes;
  for (const TagId& id : MakePopulation(1000, rng)) {
    ser::PutU64Le(bytes, id.payload_lo());
    ser::PutU32Le(bytes, static_cast<std::uint32_t>(id.payload_hi()) << 16 |
                             id.crc());
  }
  EXPECT_EQ(store::Crc32(bytes), 0xfc84a11bu);
}

TEST(Population, PayloadBitsUniform) {
  // The query-tree baseline depends on uniform IDs: check the first
  // payload bit splits the population roughly in half.
  anc::Pcg32 rng(4);
  const auto pop = MakePopulation(10000, rng);
  int ones = 0;
  for (const TagId& id : pop) {
    ones += (id.payload_hi() >> 15) & 1;
  }
  EXPECT_NEAR(ones / 10000.0, 0.5, 0.02);
}

}  // namespace
}  // namespace anc::sim
