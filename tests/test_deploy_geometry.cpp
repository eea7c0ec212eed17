#include "deploy/geometry.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace anc::deploy {
namespace {

// Property: a reader grid with any overlap >= 0 tiles the floor — the
// union of the readers' covered sets is every tag, for every layout.
TEST(DeployGeometry, GridCoversEveryTagWheneverRadiiTile) {
  const struct {
    FloorPlan floor;
    std::size_t rows, cols;
    double overlap;
    TagPlacement placement;
  } cases[] = {
      {{40.0, 40.0}, 2, 2, 0.0, TagPlacement::kUniform},
      {{40.0, 40.0}, 2, 2, 0.0, TagPlacement::kClustered},
      {{80.0, 20.0}, 1, 4, 0.0, TagPlacement::kUniform},
      {{80.0, 20.0}, 1, 4, 0.3, TagPlacement::kClustered},
      {{60.0, 45.0}, 3, 4, 0.15, TagPlacement::kUniform},
      {{25.0, 70.0}, 5, 2, 0.5, TagPlacement::kClustered},
      {{40.0, 40.0}, 1, 1, 0.0, TagPlacement::kUniform},
  };
  for (const auto& c : cases) {
    anc::Pcg32 rng(7);
    TagLayout layout;
    layout.placement = c.placement;
    const auto points = PlaceTags(c.floor, 500, layout, rng);
    const auto readers = GridReaders(c.floor, c.rows, c.cols, c.overlap);
    ASSERT_EQ(readers.size(), c.rows * c.cols);
    std::vector<bool> covered(points.size(), false);
    for (const Reader& reader : readers) {
      for (std::uint32_t i : CoveredTags2D(reader, points)) {
        covered[i] = true;
      }
    }
    for (std::size_t i = 0; i < covered.size(); ++i) {
      EXPECT_TRUE(covered[i])
          << "tag " << i << " uncovered in " << c.rows << "x" << c.cols
          << " overlap " << c.overlap;
    }
  }
}

TEST(DeployGeometry, PlacementStaysOnTheFloorAndIsDeterministic) {
  const FloorPlan floor{30.0, 50.0};
  for (const auto placement :
       {TagPlacement::kUniform, TagPlacement::kClustered}) {
    TagLayout layout;
    layout.placement = placement;
    anc::Pcg32 rng_a(42);
    anc::Pcg32 rng_b(42);
    const auto a = PlaceTags(floor, 300, layout, rng_a);
    const auto b = PlaceTags(floor, 300, layout, rng_b);
    ASSERT_EQ(a.size(), 300u);
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].x, b[i].x);
      EXPECT_EQ(a[i].y, b[i].y);
      EXPECT_GE(a[i].x, 0.0);
      EXPECT_LE(a[i].x, floor.width);
      EXPECT_GE(a[i].y, 0.0);
      EXPECT_LE(a[i].y, floor.height);
    }
  }
}

TEST(DeployGeometry, CoveredTags2DIsExactDiskMembership) {
  const Reader reader{{10.0, 10.0}, 5.0};
  const std::vector<Point> points{
      {10.0, 10.0},  // centre
      {15.0, 10.0},  // on the rim: covered
      {10.0, 15.001},
      {13.0, 14.0},  // distance 5 exactly (3-4-5)
      {14.0, 14.0},  // sqrt(32) > 5
      {0.0, 0.0},
  };
  const auto covered = CoveredTags2D(reader, points);
  EXPECT_EQ(covered, (std::vector<std::uint32_t>{0, 1, 3}));
}

// Property: disk overlap is symmetric, and the constraint graph mirrors
// it edge for edge.
TEST(DeployGeometry, InterferenceGraphMatchesPairwiseOverlapSymmetrically) {
  anc::Pcg32 rng(3);
  std::vector<Reader> readers;
  for (int i = 0; i < 24; ++i) {
    readers.push_back({{rng.UniformDouble() * 40.0,
                        rng.UniformDouble() * 40.0},
                       1.0 + rng.UniformDouble() * 9.0});
  }
  const InterferenceGraph graph = BuildInterferenceGraph(readers);
  ASSERT_EQ(graph.size(), readers.size());
  for (std::uint32_t a = 0; a < readers.size(); ++a) {
    for (std::uint32_t b = 0; b < readers.size(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(CoverageOverlaps(readers[a], readers[b]),
                CoverageOverlaps(readers[b], readers[a]));
      EXPECT_EQ(graph.Adjacent(a, b), graph.Adjacent(b, a));
      EXPECT_EQ(graph.Adjacent(a, b),
                CoverageOverlaps(readers[a], readers[b]));
    }
  }
}

TEST(DeployGeometry, LinearGridIsAPathAndSquareRoomIsAClique) {
  // 20m cells along a hall: only adjacent readers' disks meet.
  const auto line = GridReaders({80.0, 20.0}, 1, 4, 0.15);
  const auto path = BuildInterferenceGraph(line);
  EXPECT_EQ(path.MaxDegree(), 2u);
  EXPECT_TRUE(path.Adjacent(0, 1));
  EXPECT_FALSE(path.Adjacent(0, 2));
  // A 2x2 grid over one square room: every disk meets every other.
  const auto square = GridReaders({40.0, 40.0}, 2, 2, 0.15);
  const auto clique = BuildInterferenceGraph(square);
  EXPECT_EQ(clique.MaxDegree(), 3u);
}

TEST(DeployGeometry, MoreOverlapNeverShrinksCoverage) {
  anc::Pcg32 rng(11);
  const FloorPlan floor{40.0, 40.0};
  const auto points = PlaceTags(floor, 400, {}, rng);
  const auto tight = GridReaders(floor, 2, 2, 0.0);
  const auto wide = GridReaders(floor, 2, 2, 0.4);
  for (std::size_t r = 0; r < tight.size(); ++r) {
    const auto narrow = CoveredTags2D(tight[r], points);
    const std::unordered_set<std::uint32_t> broad([&] {
      auto v = CoveredTags2D(wide[r], points);
      return std::unordered_set<std::uint32_t>(v.begin(), v.end());
    }());
    for (std::uint32_t i : narrow) {
      EXPECT_TRUE(broad.count(i)) << "overlap growth dropped tag " << i;
    }
    EXPECT_GE(broad.size(), narrow.size());
  }
}

}  // namespace
}  // namespace anc::deploy
