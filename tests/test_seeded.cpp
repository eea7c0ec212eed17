#include "protocols/irsa.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/factories.h"
#include "service/replay.h"
#include "sim/population.h"
#include "sim/runner.h"
#include "trace/binary.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace anc::protocols {
namespace {

trace::TraceFile RecordTrace(const sim::ProtocolFactory& factory,
                             std::size_t n_tags, std::size_t runs,
                             std::uint64_t base_seed = 1,
                             std::size_t n_threads = 1) {
  sim::ExperimentOptions eo;
  eo.n_tags = n_tags;
  eo.runs = runs;
  eo.base_seed = base_seed;
  eo.n_threads = n_threads;
  trace::MultiRunRecorder recorder(runs);
  eo.trace_factory = recorder.Factory();
  sim::RunExperiment(factory, eo);
  return recorder.File();
}

TEST(SeededPattern, RegenerationMatchesTagSideDraws) {
  // The reader regenerates each tag's pattern from the same pure function
  // the tag used — identical inputs must give the identical pattern.
  const auto degrees = DegreeDistribution::IrsaOptimal();
  anc::Pcg32 rng(17, 3);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t digest = (static_cast<std::uint64_t>(rng()) << 32) |
                                 rng();
    const std::uint64_t salt = (static_cast<std::uint64_t>(rng()) << 32) |
                               rng();
    const std::uint64_t frame = rng() % 100;
    const std::uint64_t frame_size = 8 + rng() % 1000;
    const SeededPattern tag_side =
        DeriveSeededPattern(digest, salt, frame, frame_size, degrees);
    const SeededPattern reader_side =
        DeriveSeededPattern(digest, salt, frame, frame_size, degrees);
    ASSERT_EQ(tag_side.degree, reader_side.degree);
    EXPECT_GE(tag_side.degree, 1);
    EXPECT_LE(tag_side.degree, SeededPattern::kMaxDegree);
    for (int d = 0; d < tag_side.degree; ++d) {
      EXPECT_EQ(tag_side.slots[d], reader_side.slots[d]);
      EXPECT_LT(tag_side.slots[d], frame_size);
      for (int e = 0; e < d; ++e) {
        EXPECT_NE(tag_side.slots[d], tag_side.slots[e]) << "duplicate slot";
      }
    }
  }
}

TEST(SeededPattern, FrameIndexDecorrelatesPatterns) {
  const auto degrees = DegreeDistribution::IrsaOptimal();
  int differing = 0;
  for (std::uint64_t digest = 1; digest <= 100; ++digest) {
    const auto a = DeriveSeededPattern(digest, 42, 1, 512, degrees);
    const auto b = DeriveSeededPattern(digest, 42, 2, 512, degrees);
    if (a.degree != b.degree || a.slots[0] != b.slots[0]) ++differing;
  }
  EXPECT_GT(differing, 80);  // patterns are per-frame fresh
}

TEST(SeededPattern, DegreeIsClampedToTheFrame) {
  const auto degrees = DegreeDistribution::IrsaOptimal();
  for (std::uint64_t digest = 1; digest <= 200; ++digest) {
    const auto p = DeriveSeededPattern(digest, 7, 1, 2, degrees);
    EXPECT_LE(p.degree, 2);
    EXPECT_GE(p.degree, 1);
  }
}

TEST(SeededAloha, ReadsEveryTag) {
  for (std::size_t n : {0ul, 1ul, 2ul, 100ul, 2000ul}) {
    const auto m = sim::RunOnce(core::MakeSeededFactory(), n, 3);
    EXPECT_EQ(m.tags_read, n) << "n=" << n;
  }
}

TEST(SeededAloha, AtOrAbovePlainIrsa) {
  // The cross-frame record store only adds decodes: stored collision
  // slots resolve retroactively, so the hybrid completes in no more
  // slots than plain IRSA (small per-seed noise allowed, means compared).
  sim::ExperimentOptions opts;
  opts.n_tags = 2048;
  opts.runs = 8;
  const auto seeded = sim::RunExperiment(core::MakeSeededFactory(), opts);
  const auto irsa = sim::RunExperiment(core::MakeIrsaFactory(), opts);
  EXPECT_EQ(seeded.runs_capped, 0u);
  EXPECT_LE(seeded.total_slots.mean(), irsa.total_slots.mean());
}

TEST(SeededAloha, CrossFrameRecordsActuallyResolve) {
  // The hybrid's defining behavior: collision slots opened as records in
  // one frame resolve in a later frame (kRecordResolve in the trace).
  const trace::TraceFile file = RecordTrace(core::MakeSeededFactory(), 800, 1);
  ASSERT_EQ(file.runs.size(), 1u);
  std::size_t opens = 0, resolves = 0;
  for (const trace::TraceEvent& e : file.runs[0].events) {
    opens += e.kind == trace::EventKind::kRecordOpen ? 1 : 0;
    resolves += e.kind == trace::EventKind::kRecordResolve ? 1 : 0;
  }
  EXPECT_GT(opens, 0u);
  EXPECT_GT(resolves, 0u);
}

TEST(SeededAloha, NoOpenRecordsAfterACompletedRun) {
  anc::Pcg32 pop_rng(11, 2);
  const auto population = sim::MakePopulation(600, pop_rng);
  IrsaConfig config;
  config.seeded_store_capacity = 0;
  Irsa protocol(population, anc::Pcg32(11, 3), {}, config);
  ASSERT_EQ(protocol.name(), "SEEDED");
  std::uint64_t guard = 0;
  while (!protocol.Finished() && ++guard < 600 * 100) protocol.Step();
  ASSERT_TRUE(protocol.Finished());
  EXPECT_EQ(protocol.metrics().tags_read, 600u);
  EXPECT_EQ(protocol.OpenPhyRecords(), 0u);
  EXPECT_EQ(protocol.metrics().unresolved_records, 0u);
}

TEST(SeededAloha, BoundedStoreEvictsAndStillReadsEverything) {
  const auto m = sim::RunOnce(core::MakeSeededFactory({}, 1), 2000, 5);
  EXPECT_EQ(m.tags_read, 2000u);
  EXPECT_GT(m.records_evicted, 0u);
}

TEST(SeededAloha, BoundedStoreEvictionCountsArePinned) {
  // Eviction drops the excess oldest records in one range erase; these
  // counts were captured from the one-record-at-a-time loop it replaced.
  struct Pin {
    std::size_t capacity;
    std::uint64_t evicted;
    std::uint64_t read;
    std::uint64_t slots;
  };
  for (const Pin& pin : {Pin{1, 152, 2000, 2392}, Pin{8, 36, 2000, 2278}}) {
    const auto m =
        sim::RunOnce(core::MakeSeededFactory({}, pin.capacity), 2000, 5);
    EXPECT_EQ(m.records_evicted, pin.evicted) << "capacity " << pin.capacity;
    EXPECT_EQ(m.tags_read, pin.read) << "capacity " << pin.capacity;
    EXPECT_EQ(m.TotalSlots(), pin.slots) << "capacity " << pin.capacity;
  }
}

TEST(SeededAloha, TraceByteIdenticalAcrossThreadCounts) {
  // "Same seed → same replica pattern at any --threads": the pattern is a
  // pure function of (digest, salt, frame), so the serialized trace is
  // byte-identical however the run loop is scheduled.
  const auto factory = core::MakeSeededFactory();
  const std::string reference =
      trace::EncodeTrace(RecordTrace(factory, 200, 4, 13, 1));
  for (std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(trace::EncodeTrace(RecordTrace(factory, 200, 4, 13, threads)),
              reference)
        << "threads=" << threads;
  }
}

TEST(SeededAloha, ReplayRoundTrips) {
  const auto factory = core::MakeSeededFactory();
  const trace::TraceFile file = RecordTrace(factory, 150, 2);
  const service::ReplayReport report = service::VerifyReplay(file, factory);
  EXPECT_TRUE(report.ok) << report.message;
}

}  // namespace
}  // namespace anc::protocols
