#include "deploy/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "blob_patch.h"
#include "deploy/geometry.h"

namespace anc::deploy {
namespace {

InterferenceGraph RandomGraph(std::uint64_t seed, std::size_t n_readers) {
  anc::Pcg32 rng(seed);
  std::vector<Reader> readers;
  for (std::size_t i = 0; i < n_readers; ++i) {
    readers.push_back({{rng.UniformDouble() * 50.0,
                        rng.UniformDouble() * 50.0},
                       2.0 + rng.UniformDouble() * 8.0});
  }
  return BuildInterferenceGraph(readers);
}

// Property: the greedy coloring is proper (no edge monochromatic) and
// uses at most MaxDegree()+1 colors, on a spread of random graphs.
TEST(DeployScheduler, GreedyColoringIsProperAndBounded) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const InterferenceGraph graph = RandomGraph(seed, 20);
    const auto colors = GreedyColoring(graph);
    ASSERT_EQ(colors.size(), graph.size());
    for (std::uint32_t r = 0; r < graph.size(); ++r) {
      EXPECT_LE(colors[r], graph.MaxDegree());
      for (std::uint32_t nb : graph.adjacency[r]) {
        EXPECT_NE(colors[r], colors[nb])
            << "edge " << r << "-" << nb << " monochromatic (seed " << seed
            << ")";
      }
    }
  }
}

// Property, every policy: NextSlot only ever activates pending readers,
// and the active set is an independent set of the interference graph.
TEST(DeployScheduler, EveryPolicyEmitsIndependentSetsOfPendingReaders) {
  for (const auto policy :
       {SchedulerPolicy::kSequential, SchedulerPolicy::kColoring,
        SchedulerPolicy::kColorwave}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const InterferenceGraph graph = RandomGraph(seed, 16);
      auto scheduler = MakeScheduler(policy, graph, anc::Pcg32(seed));
      // Retire readers one by one as slots accumulate, so the invariant
      // is exercised across shrinking pending sets.
      std::vector<bool> pending(graph.size(), true);
      std::vector<std::uint64_t> slots_served(graph.size(), 0);
      std::size_t still_pending = graph.size();
      for (int slot = 0; slot < 4000 && still_pending > 0; ++slot) {
        const auto active = scheduler->NextSlot(pending);
        for (std::size_t i = 0; i < active.size(); ++i) {
          EXPECT_TRUE(pending[active[i]])
              << SchedulerPolicyName(policy) << " activated a done reader";
          for (std::size_t j = i + 1; j < active.size(); ++j) {
            EXPECT_FALSE(graph.Adjacent(active[i], active[j]))
                << SchedulerPolicyName(policy)
                << " activated interfering readers " << active[i] << ","
                << active[j];
          }
        }
        for (std::uint32_t r : active) {
          if (++slots_served[r] >= 50 && pending[r]) {
            pending[r] = false;
            --still_pending;
          }
        }
      }
      // Liveness: every reader got its 50 slots well within the budget.
      EXPECT_EQ(still_pending, 0u)
          << SchedulerPolicyName(policy) << " starved a reader (seed "
          << seed << ")";
    }
  }
}

TEST(DeployScheduler, SequentialActivatesExactlyOnePendingReaderPerSlot) {
  const InterferenceGraph graph = RandomGraph(5, 6);
  auto scheduler =
      MakeScheduler(SchedulerPolicy::kSequential, graph, anc::Pcg32(1));
  std::vector<bool> pending(6, true);
  pending[2] = false;
  std::vector<std::uint32_t> order;
  for (int slot = 0; slot < 10; ++slot) {
    const auto active = scheduler->NextSlot(pending);
    ASSERT_EQ(active.size(), 1u);
    order.push_back(active[0]);
  }
  // Round-robin over the five pending readers, skipping reader 2.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 3, 4, 5, 0, 1, 3, 4, 5}));
  EXPECT_TRUE(scheduler->NextSlot(std::vector<bool>(6, false)).empty());
}

TEST(DeployScheduler, ColoringCyclesColorClassesAndSkipsFinishedOnes) {
  // Path graph 0-1-2-3 (20m cells along a hall): 2-colorable, so slots
  // alternate {0,2} and {1,3} while all four readers are pending.
  const auto readers = GridReaders({80.0, 20.0}, 1, 4, 0.15);
  const InterferenceGraph graph = BuildInterferenceGraph(readers);
  auto scheduler =
      MakeScheduler(SchedulerPolicy::kColoring, graph, anc::Pcg32(1));
  std::vector<bool> pending(4, true);
  auto sorted = [](std::vector<std::uint32_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto first = sorted(scheduler->NextSlot(pending));
  const auto second = sorted(scheduler->NextSlot(pending));
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_TRUE(first != second);
  // With one class entirely finished the other runs every slot.
  for (std::uint32_t r : first) pending[r] = false;
  EXPECT_EQ(sorted(scheduler->NextSlot(pending)), second);
  EXPECT_EQ(sorted(scheduler->NextSlot(pending)), second);
}

TEST(DeployScheduler, ColorwaveIsDeterministicForAFixedSeed) {
  const InterferenceGraph graph = RandomGraph(9, 12);
  auto a = MakeScheduler(SchedulerPolicy::kColorwave, graph, anc::Pcg32(77));
  auto b = MakeScheduler(SchedulerPolicy::kColorwave, graph, anc::Pcg32(77));
  const std::vector<bool> pending(12, true);
  for (int slot = 0; slot < 200; ++slot) {
    EXPECT_EQ(a->NextSlot(pending), b->NextSlot(pending));
  }
}

TEST(DeployScheduler, SequentialRestoreRejectsOutOfRangeCursor) {
  const InterferenceGraph graph = RandomGraph(5, 6);
  auto scheduler =
      MakeScheduler(SchedulerPolicy::kSequential, graph, anc::Pcg32(1));
  const std::vector<bool> pending(6, true);
  for (int slot = 0; slot < 3; ++slot) scheduler->NextSlot(pending);
  std::string blob;
  scheduler->SaveState(&blob);
  ser::Reader walk{blob};
  const testing_blob::Field cursor = testing_blob::NextVarint(walk);
  ASSERT_EQ(testing_blob::ValueAt(blob, cursor), 3u);

  // Past the reader vector, and a value whose low 32 bits are in range.
  for (std::uint64_t bad : {std::uint64_t{6}, std::uint64_t{1000},
                            (std::uint64_t{1} << 32) + 1}) {
    auto fresh =
        MakeScheduler(SchedulerPolicy::kSequential, graph, anc::Pcg32(1));
    const std::string patched = testing_blob::Patch(blob, cursor, bad);
    ser::Reader r{patched};
    EXPECT_FALSE(fresh->RestoreState(r)) << "cursor " << bad;
  }
  // The last reader is a valid cursor, and the restored scheduler resumes
  // the round-robin there.
  auto fresh =
      MakeScheduler(SchedulerPolicy::kSequential, graph, anc::Pcg32(1));
  const std::string last = testing_blob::Patch(blob, cursor, 5);
  ser::Reader r{last};
  ASSERT_TRUE(fresh->RestoreState(r));
  EXPECT_EQ(fresh->NextSlot(pending), (std::vector<std::uint32_t>{5}));
  EXPECT_EQ(fresh->NextSlot(pending), (std::vector<std::uint32_t>{0}));
}

}  // namespace
}  // namespace anc::deploy
