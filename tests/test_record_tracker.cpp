#include "core/record_tracker.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "phy_test_util.h"
#include "phy/ideal_phy.h"
#include "sim/population.h"

namespace anc::core {
namespace {

struct Fixture {
  std::vector<TagId> pop;
  phy::IdealPhy phy;
  RecordTracker tracker;

  explicit Fixture(unsigned lambda = 2, std::size_t n = 16)
      : pop([n] {
          anc::Pcg32 rng(1);
          return anc::sim::MakePopulation(n, rng);
        }()),
        phy(pop, {lambda, 1.0, 0.0}, anc::Pcg32(2)),
        tracker(pop.size()) {}

  phy::RecordHandle Collide(std::uint64_t slot,
                            std::initializer_list<std::uint32_t> tags) {
    std::vector<std::uint32_t> participants(tags);
    const auto obs = phy_test::Observe(phy, slot, participants);
    tracker.Register(obs.record, participants);
    return obs.record;
  }

  std::vector<RecordTracker::Resolution> OnIdKnown(std::uint32_t tag) {
    std::vector<RecordTracker::Resolution> out;
    tracker.OnIdKnown(tag, phy, &out);
    return out;
  }
};

TEST(RecordTracker, SimpleTwoCollision) {
  Fixture f;
  f.Collide(0, {3, 5});
  const auto resolved = f.OnIdKnown(3);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].id, f.pop[5]);
  EXPECT_EQ(f.tracker.open_records(), 0u);
  EXPECT_EQ(f.phy.OpenRecords(), 0u);
}

TEST(RecordTracker, Figure1Walkthrough) {
  // The paper's Fig. 1: mixed(t1, t4) in slot 1, singleton t1 in slot 3
  // resolves t4; mixed(t2, t3) in slot 4, singleton t3 in slot 6 resolves
  // t2. Tag indices 1..4 stand in for t1..t4.
  Fixture f;
  f.Collide(1, {1, 4});
  f.Collide(4, {2, 3});

  auto r1 = f.OnIdKnown(1);  // singleton t1
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(r1[0].id, f.pop[4]);

  auto r2 = f.OnIdKnown(3);  // singleton t3
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0].id, f.pop[2]);
}

TEST(RecordTracker, ThreeCollisionNeedsTwoKnowns) {
  Fixture f(3);
  f.Collide(0, {1, 2, 3});
  EXPECT_TRUE(f.OnIdKnown(1).empty());
  const auto resolved = f.OnIdKnown(2);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].id, f.pop[3]);
}

TEST(RecordTracker, LambdaCapBlocksResolution) {
  Fixture f(2);
  f.Collide(0, {1, 2, 3});
  EXPECT_TRUE(f.OnIdKnown(1).empty());
  EXPECT_TRUE(f.OnIdKnown(2).empty());
  EXPECT_EQ(f.tracker.open_records(), 1u);  // stays unresolved
}

TEST(RecordTracker, OneKnownIdUnlocksMultipleRecords) {
  Fixture f;
  f.Collide(0, {1, 2});
  f.Collide(1, {1, 3});
  f.Collide(2, {1, 4});
  const auto resolved = f.OnIdKnown(1);
  ASSERT_EQ(resolved.size(), 3u);
}

TEST(RecordTracker, ResolvedRecordNotReprocessed) {
  Fixture f;
  f.Collide(0, {1, 2});
  ASSERT_EQ(f.OnIdKnown(1).size(), 1u);
  // Tag 2 (resolved) also participated in the record; feeding it back
  // must not re-resolve anything.
  EXPECT_TRUE(f.OnIdKnown(2).empty());
}

TEST(RecordTracker, TagWithNoRecords) {
  Fixture f;
  EXPECT_TRUE(f.OnIdKnown(7).empty());
}

TEST(RecordTracker, DuplicatePairRecordsOnlyOneUseful) {
  Fixture f;
  f.Collide(0, {1, 2});
  f.Collide(1, {1, 2});
  const auto resolved = f.OnIdKnown(1);
  // Both records resolve to tag 2; the engine deduplicates learned IDs.
  EXPECT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].id, f.pop[2]);
  EXPECT_EQ(resolved[1].id, f.pop[2]);
}

// A checkpoint cut while tag 1's chain has closed records at its head
// and in its middle. The live cursor and the sweep watermark are derived
// state: they never reach the checkpoint bytes, and a restored tracker
// (cursor back at the chain head) resolves exactly what a tracker that
// was never checkpointed resolves, in the same order.
struct TrackedTwin {
  Fixture f{3};

  std::string Save() const {
    std::string bytes;
    f.phy.SaveState(&bytes);
    f.tracker.SaveState(&bytes);
    return bytes;
  }

  bool Restore(const std::string& bytes) {
    anc::ser::Reader r{bytes};
    return f.phy.RestoreState(r) && f.tracker.RestoreState(r) && r.AtEnd();
  }
};

std::vector<std::pair<TagId, std::uint32_t>> Flatten(
    const std::vector<RecordTracker::Resolution>& rs) {
  std::vector<std::pair<TagId, std::uint32_t>> out;
  for (const auto& r : rs) out.emplace_back(r.id, r.record.index());
  return out;
}

TEST(RecordTracker, CheckpointKeepsResolutionsAndBytes) {
  TrackedTwin live;
  live.f.Collide(0, {1, 2});
  live.f.Collide(1, {1, 3});
  live.f.Collide(2, {1, 4, 5});
  live.f.Collide(3, {1, 6});
  live.f.Collide(4, {1, 4, 7});
  // Close tag 1's second record, then its first: the chain's head and an
  // interior node are closed, the rest open.
  ASSERT_EQ(live.f.OnIdKnown(3).size(), 1u);
  ASSERT_EQ(live.f.OnIdKnown(2).size(), 1u);
  ASSERT_EQ(live.f.tracker.open_records(), 3u);

  const std::string bytes = live.Save();
  TrackedTwin restored;
  ASSERT_TRUE(restored.Restore(bytes));
  EXPECT_EQ(restored.Save(), bytes);

  // The same learns and registrations on both sides, compared call by
  // call; the late record on tag 1 is reached through the closed nodes.
  const auto learn = [&](std::uint32_t tag) {
    const auto a = Flatten(live.f.OnIdKnown(tag));
    const auto b = Flatten(restored.f.OnIdKnown(tag));
    EXPECT_EQ(a, b) << "learning tag " << tag;
    return a;
  };
  const auto r1 = learn(1);
  ASSERT_EQ(r1.size(), 1u);  // {1,6}; the two 3-collisions need a second
  EXPECT_EQ(r1[0].first, live.f.pop[6]);
  const auto r4 = learn(4);
  ASSERT_EQ(r4.size(), 2u);
  EXPECT_EQ(r4[0].first, live.f.pop[5]);
  EXPECT_EQ(r4[1].first, live.f.pop[7]);
  live.f.Collide(5, {1, 8});
  restored.f.Collide(5, {1, 8});
  const auto late = learn(1);
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].first, live.f.pop[8]);

  EXPECT_EQ(restored.Save(), live.Save());
  EXPECT_EQ(live.f.tracker.open_records(), 0u);
  EXPECT_EQ(restored.f.phy.OpenRecords(), 0u);
}

// The sweep watermark never hides an open record: records registered
// after one sweep are released by the next.
TEST(RecordTracker, ReleaseAllAfterReleaseAllStillReleases) {
  Fixture f;
  f.Collide(0, {1, 2});
  f.Collide(1, {3, 4});
  ASSERT_EQ(f.OnIdKnown(1).size(), 1u);
  EXPECT_EQ(f.tracker.ReleaseAll(
                f.phy, fault::RecordLedger::CloseReason::kReleasedAtEnd),
            1u);
  f.Collide(2, {5, 6});
  f.Collide(3, {7, 8});
  EXPECT_EQ(f.tracker.ReleaseAll(
                f.phy, fault::RecordLedger::CloseReason::kReleasedAtEnd),
            2u);
  EXPECT_EQ(f.tracker.open_records(), 0u);
  EXPECT_EQ(f.phy.OpenRecords(), 0u);
}

}  // namespace
}  // namespace anc::core
