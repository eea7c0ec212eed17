// DigestIndex against std::unordered_map: same answers for random keys,
// duplicates (first value wins) and misses, at the edge sizes, and over
// probe chains that collide on their low bits and wrap past the table end.
#include "common/digest_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace anc {
namespace {

std::uint64_t Draw64(Pcg32& rng) {
  return (static_cast<std::uint64_t>(rng()) << 32) | rng();
}

// Inserts `keys` (value = position) into both maps, checking every Insert
// result, then checks every key, plus `misses`, in both.
void ExpectSameAsMap(std::size_t sized_for,
                     const std::vector<std::uint64_t>& keys,
                     const std::vector<std::uint64_t>& misses) {
  DigestIndex index(sized_for);
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Insert(keys[i], i), ref.emplace(keys[i], i).second)
        << "key " << keys[i];
  }
  EXPECT_EQ(index.size(), ref.size());
  for (const std::uint64_t key : keys) {
    EXPECT_EQ(index.Find(key), ref.at(key)) << "key " << key;
  }
  for (const std::uint64_t key : misses) {
    ASSERT_EQ(ref.count(key), 0u);
    EXPECT_EQ(index.Find(key), DigestIndex::kNone) << "key " << key;
  }
}

TEST(DigestIndex, RandomKeysDuplicatesAndMisses) {
  Pcg32 rng(5);
  for (const std::size_t n : {2u, 3u, 100u, 1000u, 4096u, 10000u}) {
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < n; ++i) keys.push_back(Draw64(rng));
    // Re-insert every seventh key later under a new value: the first
    // value must survive.
    for (std::size_t i = 0; i < n; i += 7) keys.push_back(keys[i]);
    std::vector<std::uint64_t> misses;
    for (std::size_t i = 0; i < n; ++i) misses.push_back(Draw64(rng));
    ExpectSameAsMap(n, keys, misses);
  }
}

TEST(DigestIndex, EmptyAndSingleKey) {
  const DigestIndex empty(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.Find(0), DigestIndex::kNone);
  EXPECT_EQ(empty.Find(~std::uint64_t{0}), DigestIndex::kNone);
  EXPECT_EQ(DigestIndex().Find(42), DigestIndex::kNone);

  ExpectSameAsMap(1, {0x1234}, {0, 1, 0x1235, ~std::uint64_t{0}});
  // Zero and all-ones are ordinary keys.
  ExpectSameAsMap(1, {0}, {1});
  ExpectSameAsMap(1, {~std::uint64_t{0}}, {0});
}

TEST(DigestIndex, SharedLowBitsProbeAndWrap) {
  // Sized for 16 keys: 32 slots. Every key's low 32 bits are 30, so all
  // share home slot 30 and the chain runs 30, 31, 0, 1, ...
  constexpr std::size_t kKeys = 16;
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> misses;
  for (std::uint64_t i = 0; i < kKeys; ++i) keys.push_back(i << 32 | 30);
  keys.push_back(keys[3]);  // a duplicate deep in the chain
  for (std::uint64_t i = kKeys; i < 2 * kKeys; ++i) {
    misses.push_back(i << 32 | 30);  // walks the whole chain, then misses
  }
  misses.push_back(31);  // home slot inside the chain, key absent
  misses.push_back(2);   // home slot wrapped into by the chain
  ExpectSameAsMap(kKeys, keys, misses);
}

TEST(DigestIndex, RejectsKeysPastItsCapacity) {
  DigestIndex index(3);  // 8 slots: room for 4 keys at load one half
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_TRUE(index.Insert(i, i));
  EXPECT_FALSE(index.Insert(2, 9));  // a known key is still a no-op
  EXPECT_THROW(index.Insert(4, 4), std::length_error);
  EXPECT_EQ(index.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(index.Find(i), i);
  EXPECT_EQ(index.Find(4), DigestIndex::kNone);
}

TEST(DigestIndex, RejectsTheEmptyMarkerAsValue) {
  DigestIndex index(4);
  EXPECT_THROW(index.Insert(1, DigestIndex::kNone), std::invalid_argument);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(1), DigestIndex::kNone);
}

TEST(DigestIndex, IndexByDigestKeepsFirstPosition) {
  const std::vector<TagId> ids = {TagId::FromPayload(1, 2),
                                  TagId::FromPayload(3, 4),
                                  TagId::FromPayload(1, 2)};
  const DigestIndex index = IndexByDigest(ids);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.Find(ids[0].Digest()), 0u);
  EXPECT_EQ(index.Find(ids[1].Digest()), 1u);
  EXPECT_EQ(index.Find(TagId::FromPayload(5, 6).Digest()), DigestIndex::kNone);
}

}  // namespace
}  // namespace anc
