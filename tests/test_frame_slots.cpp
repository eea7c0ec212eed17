#include "protocols/frame_slots.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace anc::protocols {
namespace {

using Reference = std::vector<std::vector<std::uint32_t>>;

void ExpectSameSlots(const FrameSlots& slots, const Reference& ref) {
  ASSERT_EQ(slots.num_slots(), ref.size());
  for (std::size_t s = 0; s < ref.size(); ++s) {
    const auto got = slots[s];
    ASSERT_EQ(slots.Occupancy(s), ref[s].size()) << "slot " << s;
    ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), ref[s])
        << "slot " << s;
  }
}

// Draws a frame the way the coded readers do: tags in order, each with a
// degree in [1, 16] (capped by the frame) and that many distinct slots,
// pushed into both the buffer and a per-slot push_back reference.
Reference DrawFrame(FrameSlots& slots, std::size_t num_slots,
                    std::uint32_t num_tags, Pcg32& rng) {
  Reference ref(num_slots);
  slots.Reset(num_slots);
  const auto frame = static_cast<std::uint32_t>(num_slots);
  const auto max_degree = std::min<std::uint32_t>(16, frame);
  for (std::uint32_t tag = 0; tag < num_tags; ++tag) {
    const std::uint32_t degree = 1 + rng.UniformBelow(max_degree);
    std::vector<std::uint32_t> picked;
    while (picked.size() < degree) {
      const std::uint32_t slot = rng.UniformBelow(frame);
      if (std::find(picked.begin(), picked.end(), slot) != picked.end()) {
        continue;
      }
      picked.push_back(slot);
      slots.Push(slot, tag);
      ref[slot].push_back(tag);
    }
  }
  slots.Build();
  return ref;
}

TEST(FrameSlots, RandomPatternsMatchPerSlotVectors) {
  Pcg32 rng(11, 3);
  FrameSlots slots;  // one buffer across frames, as within a run
  for (const std::size_t num_slots :
       {std::size_t{8}, std::size_t{9}, std::size_t{100},
        std::size_t{1024}, std::size_t{1} << 15}) {
    for (const std::uint32_t num_tags : {0u, 1u, 5u, 700u, 3000u}) {
      SCOPED_TRACE(testing::Message() << num_slots << " slots, " << num_tags
                                      << " tags");
      const Reference ref = DrawFrame(slots, num_slots, num_tags, rng);
      ExpectSameSlots(slots, ref);
    }
  }
}

TEST(FrameSlots, EmptyFrameAndFrameOfEmptySlots) {
  FrameSlots slots;
  slots.Reset(0);
  slots.Build();
  EXPECT_EQ(slots.num_slots(), 0u);

  Pcg32 rng(5, 1);
  DrawFrame(slots, 64, 200, rng);  // leaves entries behind to clear
  slots.Reset(37);
  slots.Build();
  ExpectSameSlots(slots, Reference(37));
  slots.Remove(36, 4);  // removing from an empty slot is a no-op
  ExpectSameSlots(slots, Reference(37));
}

// A departing tag is removed from every slot from the cursor on, as
// Irsa::DepartTag does, at every cursor position of the frame; the
// holes it leaves must not show in any slot.
TEST(FrameSlots, RemovalsFromEveryCursorMatch) {
  Pcg32 rng(7, 9);
  FrameSlots slots;
  for (const std::size_t num_slots : {std::size_t{8}, std::size_t{61}}) {
    for (std::size_t cursor = 0; cursor <= num_slots; ++cursor) {
      SCOPED_TRACE(testing::Message() << num_slots << " slots, cursor "
                                      << cursor);
      const auto num_tags = 3 * static_cast<std::uint32_t>(num_slots);
      Reference ref = DrawFrame(slots, num_slots, num_tags, rng);
      for (int departures = 0; departures < 12; ++departures) {
        const std::uint32_t tag = rng.UniformBelow(num_tags);
        for (std::size_t s = cursor; s < num_slots; ++s) {
          slots.Remove(s, tag);
          std::erase(ref[s], tag);
        }
        ExpectSameSlots(slots, ref);
      }
    }
  }
}

TEST(FrameSlots, DrainingEverySlotLeavesThemEmpty) {
  Pcg32 rng(2, 4);
  FrameSlots slots;
  const std::size_t num_slots = std::size_t{1} << 15;
  const std::uint32_t num_tags = 20000;
  Reference ref = DrawFrame(slots, num_slots, num_tags, rng);
  for (std::uint32_t tag = 0; tag < num_tags; tag += 97) {
    const std::size_t cursor = rng.UniformBelow(1u << 15);
    for (std::size_t s = cursor; s < num_slots; ++s) {
      slots.Remove(s, tag);
      std::erase(ref[s], tag);
    }
  }
  ExpectSameSlots(slots, ref);
  for (std::size_t s = 0; s < num_slots; ++s) {
    while (slots.Occupancy(s) > 0) slots.Remove(s, slots[s].back());
  }
  ExpectSameSlots(slots, Reference(num_slots));
}

}  // namespace
}  // namespace anc::protocols
