#include "deploy/deployment.h"

#include <gtest/gtest.h>

#include "core/factories.h"
#include "sim/population.h"

namespace anc::deploy {
namespace {

std::vector<TagId> Tags(std::size_t n, std::uint64_t seed = 1) {
  anc::Pcg32 rng(seed);
  return anc::sim::MakePopulation(n, rng);
}

sim::ProtocolFactory Fcat2() {
  core::FcatOptions options;
  options.lambda = 2;
  options.timing = phy::TimingModel::ICode();
  return core::MakeFcatFactory(options);
}

DeploymentConfig HallOf4() {
  // 1x4 line of readers along an 80m hall: a path interference graph,
  // where a 2-coloring runs two readers per slot.
  DeploymentConfig config;
  config.floor = {80.0, 20.0};
  config.reader_rows = 1;
  config.reader_cols = 4;
  return config;
}

TEST(Deployment, FcatGridInventoriesEveryTag) {
  const auto tags = Tags(300);
  DeploymentConfig config;  // 2x2 over a 40m room, coloring TDMA
  const auto result = RunDeployment(tags, config, Fcat2(), 7);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.unique_ids, 300u);
  EXPECT_EQ(result.n_readers, 4u);
  EXPECT_GT(result.duplicate_reads, 0u);  // overlap zones read twice
  EXPECT_GT(result.global_slots, 0u);
  EXPECT_GT(result.makespan_seconds, 0.0);
  EXPECT_GT(result.slot_efficiency, 0.0);
  EXPECT_LE(result.slot_efficiency, 1.0);
  ASSERT_EQ(result.per_reader.size(), 4u);
  double duty_sum = 0.0;
  for (const auto& reader : result.per_reader) {
    EXPECT_FALSE(reader.capped);
    EXPECT_GT(reader.covered_tags, 0u);
    EXPECT_GT(reader.duty_cycle, 0.0);
    EXPECT_LE(reader.duty_cycle, 1.0);
    duty_sum += reader.duty_cycle;
  }
  EXPECT_GT(duty_sum, 0.99);  // someone is active nearly every slot
}

TEST(Deployment, DfsaBaselineCompletesThroughTheFallbackMerge) {
  // DFSA has no LearnedThisStep hook; the merge relies on the
  // completeness rule at reader finish.
  const auto tags = Tags(250);
  const auto result = RunDeployment(
      tags, HallOf4(), core::MakeDfsaFactory(phy::TimingModel::ICode()), 3);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.unique_ids, 250u);
  EXPECT_EQ(result.injected_ids, 0u);  // sharing hooks are a no-op
  EXPECT_EQ(result.shared_resolutions, 0u);
}

TEST(Deployment, ColoringBeatsSequentialOnTimeToFullInventory) {
  // >= 4 readers with overlapping coverage (the acceptance scenario).
  const auto readers = GridReaders({80.0, 20.0}, 1, 4, 0.15);
  ASSERT_GE(BuildInterferenceGraph(readers).MaxDegree(), 1u);

  const auto tags = Tags(300);
  DeploymentConfig sequential = HallOf4();
  sequential.policy = SchedulerPolicy::kSequential;
  DeploymentConfig coloring = HallOf4();
  coloring.policy = SchedulerPolicy::kColoring;
  for (const std::uint64_t seed : {1, 5, 9}) {
    const auto seq = RunDeployment(tags, sequential, Fcat2(), seed);
    const auto col = RunDeployment(tags, coloring, Fcat2(), seed);
    ASSERT_TRUE(seq.complete);
    ASSERT_TRUE(col.complete);
    EXPECT_LT(col.makespan_seconds, seq.makespan_seconds)
        << "coloring lost to sequential at seed " << seed;
  }
}

TEST(Deployment, SharingRecoversMoreFromCollisionSlots) {
  // Acceptance scenario: at coverage overlap >= 0.3, broadcasting
  // resolved IDs lets overlap-zone collision records cascade across
  // readers — isolated readers recover strictly fewer IDs out of their
  // collision slots.
  const auto tags = Tags(300);
  DeploymentConfig config;  // 2x2 room grid: dense overlap zones
  config.overlap = 0.3;
  for (const std::uint64_t seed : {2, 4, 8}) {
    DeploymentConfig isolated = config;
    isolated.share_records = false;
    DeploymentConfig shared = config;
    shared.share_records = true;
    const auto off = RunDeployment(tags, isolated, Fcat2(), seed);
    const auto on = RunDeployment(tags, shared, Fcat2(), seed);
    ASSERT_TRUE(off.complete);
    ASSERT_TRUE(on.complete);
    // The sharing machinery actually fired: IDs crossed reader
    // boundaries and closed records a lone reader still had open.
    EXPECT_GT(on.injected_ids, 0u);
    EXPECT_GT(on.shared_resolutions, 0u);
    EXPECT_EQ(off.injected_ids, 0u);
    // Strictly more IDs out of collision slots: locally resolved ones
    // plus those whose resolution arrived over the backhaul.
    EXPECT_GT(on.ids_from_collisions + on.injected_ids,
              off.ids_from_collisions)
        << "sharing recovered nothing extra at seed " << seed;
    // And the recovered duplicates stop costing air time.
    EXPECT_LT(on.makespan_seconds, off.makespan_seconds);
    EXPECT_LT(on.duplicate_reads, off.duplicate_reads);
  }
}

TEST(Deployment, ColorwaveCompletesTheInventory) {
  const auto tags = Tags(200);
  DeploymentConfig config = HallOf4();
  config.policy = SchedulerPolicy::kColorwave;
  const auto result = RunDeployment(tags, config, Fcat2(), 11);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.unique_ids, 200u);
}

TEST(Deployment, DuplicateReadsGrowWithOverlap) {
  const auto tags = Tags(300);
  DeploymentConfig narrow;
  narrow.overlap = 0.02;
  DeploymentConfig wide;
  wide.overlap = 0.5;
  const auto small = RunDeployment(tags, narrow, Fcat2(), 13);
  const auto large = RunDeployment(tags, wide, Fcat2(), 13);
  ASSERT_TRUE(small.complete);
  ASSERT_TRUE(large.complete);
  EXPECT_GT(large.duplicate_reads, small.duplicate_reads);
}

// Section II-A's multi-position inventory: one reader visits a shelf line
// of positions one at a time and the merge removes the IDs read twice in
// the overlaps — a one-row deployment under the sequential schedule.
DeploymentConfig ShelfLine(std::size_t positions, double overlap) {
  DeploymentConfig config;
  config.floor = {20.0 * static_cast<double>(positions), 20.0};
  config.reader_rows = 1;
  config.reader_cols = positions;
  config.overlap = overlap;
  config.policy = SchedulerPolicy::kSequential;
  return config;
}

TEST(Inventory, CompleteWithFcat) {
  const auto warehouse = Tags(3000);
  const auto result = RunDeployment(warehouse, ShelfLine(4, 0.15),
                                    core::MakeFcatFactory({}), 7);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.unique_ids, 3000u);
  EXPECT_GT(result.duplicate_reads, 0u);  // overlap read twice
  EXPECT_EQ(result.per_reader.size(), 4u);
  EXPECT_GT(result.makespan_seconds, 0.0);
}

TEST(Inventory, FcatFasterThanDfsa) {
  const auto warehouse = Tags(4000);
  const DeploymentConfig config = ShelfLine(4, 0.2);
  const auto fcat =
      RunDeployment(warehouse, config, core::MakeFcatFactory({}), 11);
  const auto dfsa =
      RunDeployment(warehouse, config, core::MakeDfsaFactory(), 11);
  ASSERT_TRUE(fcat.complete);
  ASSERT_TRUE(dfsa.complete);
  EXPECT_LT(fcat.makespan_seconds, dfsa.makespan_seconds * 0.80);
}

TEST(Inventory, MoreOverlapCostsMoreAirTime) {
  const auto warehouse = Tags(3000);
  const auto narrow = RunDeployment(warehouse, ShelfLine(4, 0.05),
                                    core::MakeFcatFactory({}), 13);
  const auto wide = RunDeployment(warehouse, ShelfLine(4, 0.45),
                                  core::MakeFcatFactory({}), 13);
  ASSERT_TRUE(narrow.complete);
  ASSERT_TRUE(wide.complete);
  EXPECT_GT(wide.duplicate_reads, narrow.duplicate_reads);
  EXPECT_GT(wide.makespan_seconds, narrow.makespan_seconds);
}

TEST(Deployment, FinishedDeploymentHoldsNoStoredSignals) {
  // Leak check across every reader's phy store: a completed deployment
  // (sharing on, so records close via broadcasts too) ends with zero
  // open collision records anywhere in the grid.
  const auto tags = Tags(250);
  DeploymentConfig config;
  config.share_records = true;
  anc::Pcg32 rng(21);
  DeploymentProtocol deployment(tags, rng.Split(), config, Fcat2());
  std::uint64_t guard = 0;
  while (!deployment.Finished() && ++guard < 1000000) deployment.Step();
  ASSERT_TRUE(deployment.Finished());
  EXPECT_TRUE(deployment.Result().complete);
  EXPECT_EQ(deployment.OpenPhyRecords(), 0u);
}

TEST(Deployment, AggregatesAreBitIdenticalAcrossThreadCounts) {
  // A deployment is a sim::Protocol, so the deterministic parallel
  // RunExperiment contract extends to it: any --threads value folds to
  // the same aggregate.
  DeploymentConfig config = HallOf4();
  config.share_records = true;
  const auto factory = MakeDeploymentFactory(config, Fcat2());
  sim::ExperimentOptions options;
  options.n_tags = 200;
  options.runs = 6;
  options.base_seed = 5;
  options.n_threads = 1;
  const auto serial = sim::RunExperiment(factory, options);
  options.n_threads = 4;
  const auto parallel = sim::RunExperiment(factory, options);
  EXPECT_EQ(serial.elapsed_seconds.mean(), parallel.elapsed_seconds.mean());
  EXPECT_EQ(serial.tags_read.mean(), parallel.tags_read.mean());
  EXPECT_EQ(serial.frames.mean(), parallel.frames.mean());
  EXPECT_EQ(serial.ids_injected.mean(), parallel.ids_injected.mean());
  EXPECT_EQ(serial.duplicate_receptions.max(),
            parallel.duplicate_receptions.max());
  EXPECT_EQ(serial.total_slots.stddev(), parallel.total_slots.stddev());
}

}  // namespace
}  // namespace anc::deploy
