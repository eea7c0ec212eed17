#include "protocols/mpr.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/factories.h"
#include "service/replay.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/runner.h"
#include "store/crc32.h"
#include "trace/binary.h"
#include "trace/recorder.h"

namespace anc::protocols {
namespace {

TEST(OptimalMprLoad, MatchesPudasainiValues) {
  // G*_1 = 1 (the classic L = n rule), G*_2 = the golden ratio,
  // G*_4 ≈ 2.945, G*_8 ≈ 5.804 (Pudasaini, Shin & Kwak 2013).
  EXPECT_DOUBLE_EQ(OptimalMprLoad(1), 1.0);
  EXPECT_NEAR(OptimalMprLoad(2), (1.0 + std::sqrt(5.0)) / 2.0, 1e-6);
  EXPECT_NEAR(OptimalMprLoad(4), 2.945, 0.005);
  EXPECT_NEAR(OptimalMprLoad(8), 5.804, 0.005);
}

TEST(Mpr, ReadsEveryTag) {
  for (std::size_t n : {0ul, 1ul, 2ul, 100ul, 2000ul}) {
    const auto m = sim::RunOnce(core::MakeMprFactory(), n, 3);
    EXPECT_EQ(m.tags_read, n) << "n=" << n;
  }
}

TEST(Mpr, EfficiencyNearTheoreticalPeak) {
  // At G*_4 the Poisson-limit efficiency is S_4(G*_4) ≈ 1.942 tags/slot.
  sim::ExperimentOptions opts;
  opts.n_tags = 5000;
  opts.runs = 5;
  const auto agg = sim::RunExperiment(core::MakeMprFactory(), opts);
  const double efficiency = 5000.0 / agg.total_slots.mean();
  EXPECT_NEAR(efficiency, 1.942, 0.1);
}

TEST(Mpr, CapacityOneIsPlainFramedAloha) {
  // M = 1 degenerates to framed ALOHA at the L = n rule: peak 1/e.
  MprConfig config;
  config.capacity = 1;
  sim::ExperimentOptions opts;
  opts.n_tags = 5000;
  opts.runs = 5;
  const auto agg = sim::RunExperiment(core::MakeMprFactory({}, config), opts);
  const double efficiency = 5000.0 / agg.total_slots.mean();
  EXPECT_NEAR(efficiency, 1.0 / 2.718281828459045, 0.04);
}

TEST(Mpr, NameCarriesTheCapacity) {
  anc::Pcg32 pop_rng(3, 1);
  const auto population = sim::MakePopulation(10, pop_rng);
  MprConfig config;
  config.capacity = 8;
  const Mpr protocol(population, anc::Pcg32(3, 2), {}, config);
  EXPECT_EQ(protocol.name(), "MPR-8");
}

TEST(Mpr, WithinCapacityCollisionsDecodeWhole) {
  const auto m = sim::RunOnce(core::MakeMprFactory(), 3000, 7);
  // At G*_4 ≈ 2.945 most slots are multi-tag; the bulk of IDs must come
  // out of decoded collisions, not singletons.
  EXPECT_GT(m.ids_from_collisions, m.ids_from_singletons);
  EXPECT_EQ(m.ids_from_singletons + m.ids_from_collisions, 3000u);
}

TEST(Mpr, ReplayRoundTrips) {
  const auto factory = core::MakeMprFactory();
  sim::ExperimentOptions eo;
  eo.n_tags = 150;
  eo.runs = 2;
  trace::MultiRunRecorder recorder(eo.runs);
  eo.trace_factory = recorder.Factory();
  sim::RunExperiment(factory, eo);
  const service::ReplayReport report =
      service::VerifyReplay(recorder.File(), factory);
  EXPECT_TRUE(report.ok) << report.message;
}

// MPR has no golden trace, so small runs are pinned by CRC instead: the
// run metrics and the recorded trace (every slot, ack and frame event)
// over seeds 1-3 and capacities 1-4. A frame buffer that moves a tag to
// another slot, or reorders a slot's tags, changes the acks' order.
TEST(Mpr, PinnedRunsAreByteIdentical) {
  std::uint32_t metrics_crc = 0;
  std::uint32_t trace_crc = 0;
  for (int capacity = 1; capacity <= 4; ++capacity) {
    MprConfig config;
    config.capacity = capacity;
    const auto factory = core::MakeMprFactory({}, config);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::string metrics;
      sim::PutRunMetrics(metrics, sim::RunOnce(factory, 500, seed));
      metrics_crc = store::Crc32(metrics, metrics_crc);

      sim::ExperimentOptions eo;
      eo.n_tags = 500;
      eo.runs = 1;
      eo.base_seed = seed;
      trace::MultiRunRecorder recorder(eo.runs);
      eo.trace_factory = recorder.Factory();
      sim::RunExperiment(factory, eo);
      trace_crc =
          store::Crc32(trace::EncodeTrace(recorder.File()), trace_crc);
    }
  }
  EXPECT_EQ(metrics_crc, 0x36088c69u);
  EXPECT_EQ(trace_crc, 0x628fbb91u);
}

TEST(PerfectIdentification, UsesExactlyCeilNOverMSlots) {
  for (int capacity : {1, 3, 4}) {
    PerfectConfig config;
    config.capacity = capacity;
    const auto m =
        sim::RunOnce(core::MakePerfectFactory({}, config), 1000, 3);
    EXPECT_EQ(m.tags_read, 1000u);
    EXPECT_EQ(m.TotalSlots(),
              (1000 + static_cast<std::uint64_t>(capacity) - 1) /
                  static_cast<std::uint64_t>(capacity))
        << "capacity=" << capacity;
    EXPECT_EQ(m.tag_transmissions, 1000u);  // one transmission per tag
  }
}

TEST(PerfectIdentification, IsAStrictUpperBoundOnMpr) {
  PerfectConfig perfect4;
  perfect4.capacity = 4;
  const auto mpr = sim::RunOnce(core::MakeMprFactory(), 2000, 5);
  const auto perfect =
      sim::RunOnce(core::MakePerfectFactory({}, perfect4), 2000, 5);
  EXPECT_LT(perfect.TotalSlots(), mpr.TotalSlots());
}

TEST(PerfectIdentification, HandlesEmptyPopulation) {
  const auto m = sim::RunOnce(core::MakePerfectFactory(), 0, 1);
  EXPECT_EQ(m.tags_read, 0u);
  EXPECT_EQ(m.TotalSlots(), 0u);
  EXPECT_EQ(m.frames, 0u);
}

}  // namespace
}  // namespace anc::protocols
