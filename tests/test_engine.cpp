#include "core/engine.h"

#include <gtest/gtest.h>

#include "analysis/omega.h"
#include "core/factories.h"
#include "phy/ideal_phy.h"
#include "sim/population.h"

namespace anc::core {
namespace {

std::vector<TagId> Pop(std::size_t n, std::uint64_t seed = 1) {
  anc::Pcg32 rng(seed);
  return anc::sim::MakePopulation(n, rng);
}

TEST(Engine, DefaultOmegaIsAnalyticOptimum) {
  const auto pop = Pop(10);
  phy::IdealPhy phy(pop, {3, 1.0, 0.0}, anc::Pcg32(1));
  CollisionAwareConfig config;
  config.lambda = 3;
  CollisionAwareEngine engine("e", pop, phy, config, anc::Pcg32(2));
  EXPECT_DOUBLE_EQ(engine.omega(), analysis::OptimalOmega(3));
}

TEST(Engine, OmegaOverrideRespected) {
  const auto pop = Pop(10);
  phy::IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(1));
  CollisionAwareConfig config;
  config.omega = 0.9;
  CollisionAwareEngine engine("e", pop, phy, config, anc::Pcg32(2));
  EXPECT_DOUBLE_EQ(engine.omega(), 0.9);
}

TEST(Engine, EmptyPopulationTerminatesViaProbe) {
  const auto pop = Pop(0);
  phy::IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(1));
  CollisionAwareConfig config;
  CollisionAwareEngine engine("e", pop, phy, config, anc::Pcg32(2));
  int steps = 0;
  while (!engine.Finished() && steps < 1000) {
    engine.Step();
    ++steps;
  }
  EXPECT_TRUE(engine.Finished());
  EXPECT_EQ(engine.metrics().tags_read, 0u);
  // Threshold empties + the p=1 probe.
  EXPECT_LE(engine.metrics().TotalSlots(), 16u);
}

TEST(Engine, OracleTerminationStopsAtLastTag) {
  const auto pop = Pop(200);
  phy::IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(1));
  CollisionAwareConfig config;
  config.oracle_termination = true;
  config.initial_estimate = 200;
  CollisionAwareEngine engine("e", pop, phy, config, anc::Pcg32(2));
  while (!engine.Finished()) engine.Step();
  EXPECT_EQ(engine.metrics().tags_read, 200u);
  EXPECT_EQ(engine.OpenPhyRecords(), 0u);
  // Faithful termination needs extra probe slots; oracle must not.
  const auto faithful = [&] {
    phy::IdealPhy phy2(pop, {2, 1.0, 0.0}, anc::Pcg32(1));
    CollisionAwareConfig c2;
    c2.initial_estimate = 200;
    CollisionAwareEngine e2("e2", pop, phy2, c2, anc::Pcg32(2));
    while (!e2.Finished()) e2.Step();
    return e2.metrics().TotalSlots();
  }();
  EXPECT_LE(engine.metrics().TotalSlots(), faithful);
}

TEST(Engine, EstimatorTracksPopulation) {
  const auto pop = Pop(5000);
  phy::IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(3));
  CollisionAwareConfig config;
  CollisionAwareEngine engine("e", pop, phy, config, anc::Pcg32(4));
  // Run half the reading process, then check the estimate.
  while (!engine.Finished() && engine.metrics().tags_read < 2500) {
    engine.Step();
  }
  EXPECT_NEAR(engine.EstimatedTotal(), 5000.0, 600.0);
}

TEST(Engine, KnowsTrueNSkipsEstimation) {
  const auto pop = Pop(500);
  phy::IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(3));
  CollisionAwareConfig config;
  config.knows_true_n = true;
  CollisionAwareEngine engine("e", pop, phy, config, anc::Pcg32(4));
  EXPECT_DOUBLE_EQ(engine.EstimatedTotal(), 500.0);
  while (!engine.Finished()) engine.Step();
  EXPECT_EQ(engine.metrics().tags_read, 500u);
  EXPECT_EQ(engine.OpenPhyRecords(), 0u);  // termination released the store
}

TEST(Engine, FrameAccounting) {
  const auto pop = Pop(300);
  phy::IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(3));
  CollisionAwareConfig config;
  config.frame_size = 10;
  config.initial_estimate = 300;
  CollisionAwareEngine engine("e", pop, phy, config, anc::Pcg32(4));
  while (!engine.Finished()) engine.Step();
  const auto& m = engine.metrics();
  // Frames = ceil(slots / frame_size) within one (the final partial frame
  // still began with an advertisement).
  EXPECT_NEAR(static_cast<double>(m.frames),
              static_cast<double>(m.TotalSlots()) / 10.0, 1.5);
}

TEST(Engine, GrossUnderestimateRecoversViaCollisionBoost) {
  // A pre-step that wildly underestimated N drives p far too high; the
  // collision-streak boost must walk the load back down and finish the
  // read.
  const auto pop = Pop(2000);
  phy::IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(3));
  CollisionAwareConfig config;
  config.knows_true_n = true;
  config.assumed_total = 20.0;  // 100x too small
  CollisionAwareEngine engine("e", pop, phy, config, anc::Pcg32(4));
  std::uint64_t steps = 0;
  while (!engine.Finished() && steps < 400 * 2000) {
    engine.Step();
    ++steps;
  }
  EXPECT_TRUE(engine.Finished());
  EXPECT_EQ(engine.metrics().tags_read, 2000u);
}

TEST(Engine, GrossOverestimateStillTerminates) {
  const auto pop = Pop(500);
  phy::IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(3));
  CollisionAwareConfig config;
  config.knows_true_n = true;
  config.assumed_total = 5000.0;  // 10x too large: mostly empty slots
  CollisionAwareEngine engine("e", pop, phy, config, anc::Pcg32(4));
  std::uint64_t steps = 0;
  while (!engine.Finished() && steps < 400 * 500) {
    engine.Step();
    ++steps;
  }
  EXPECT_TRUE(engine.Finished());
  EXPECT_EQ(engine.metrics().tags_read, 500u);
}

TEST(Engine, ElapsedTimeExceedsPureSlotTime) {
  // Advertisement and resolved-ack overheads must be accounted.
  const auto pop = Pop(500);
  phy::IdealPhy phy(pop, {2, 1.0, 0.0}, anc::Pcg32(3));
  CollisionAwareConfig config;
  config.initial_estimate = 500;
  CollisionAwareEngine engine("e", pop, phy, config, anc::Pcg32(4));
  while (!engine.Finished()) engine.Step();
  const auto& m = engine.metrics();
  const double slot_time =
      static_cast<double>(m.TotalSlots()) * config.timing.SlotSeconds();
  EXPECT_GT(m.elapsed_seconds, slot_time);
  EXPECT_LT(m.elapsed_seconds, slot_time * 1.15);
}

}  // namespace
}  // namespace anc::core
