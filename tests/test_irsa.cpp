#include "protocols/irsa.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "blob_patch.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/factories.h"
#include "service/replay.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/runner.h"
#include "trace/binary.h"

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
  trace::MemorySink recorded;
  eo.trace = &recorded;
  sim::RunExperiment(factory, eo);
  return recorded.TakeFile();
}

TEST(Irsa, ReadsEveryTag) {
  for (std::size_t n : {0ul, 1ul, 2ul, 100ul, 2000ul}) {
    const auto m = sim::RunOnce(core::MakeIrsaFactory(), n, 3);
    EXPECT_EQ(m.tags_read, n) << "n=" << n;
  }
}

TEST(Irsa, BeatsCrdsaAtItsOwnOperatingPoint) {
  // The acceptance headline: with each protocol at its own design load
  // (CRDSA-2 at G = 0.65, IRSA at G = 0.9 under the Λ3 threshold), IRSA's
  // higher decoding threshold needs clearly fewer slots per inventory.
  sim::ExperimentOptions opts;
  opts.n_tags = 2048;
  opts.runs = 8;
  const auto irsa = sim::RunExperiment(core::MakeIrsaFactory(), opts);
  const auto crdsa = sim::RunExperiment(core::MakeCrdsaFactory(), opts);
  EXPECT_EQ(irsa.runs_capped, 0u);
  EXPECT_LT(irsa.total_slots.mean(), crdsa.total_slots.mean() * 0.8);
}

TEST(Irsa, EfficiencyApproachesTheThreshold) {
  // Deep backlog lets IRSA ride near its G* ≈ 0.938 threshold; finite
  // frames and the final drain frames keep it somewhat below.
  sim::ExperimentOptions opts;
  opts.n_tags = 5000;
  opts.runs = 5;
  const auto agg = sim::RunExperiment(core::MakeIrsaFactory(), opts);
  const double efficiency = 5000.0 / agg.total_slots.mean();
  EXPECT_GT(efficiency, 0.65);
  EXPECT_LT(efficiency, 0.95);
}

TEST(Irsa, MeanTransmissionsTrackTheDistribution) {
  // Λ'(1) = 3.6 replicas per tag per frame; most tags decode in the
  // first frame, so per-tag energy lands near 3.6–6 copies.
  const auto m = sim::RunOnce(core::MakeIrsaFactory(), 2000, 5);
  const double tx_per_tag = static_cast<double>(m.tag_transmissions) / 2000.0;
  EXPECT_GE(tx_per_tag, 3.6);
  EXPECT_LT(tx_per_tag, 8.0);
}

TEST(Irsa, AggregateIdenticalAcrossThreadCounts) {
  sim::ExperimentOptions opts;
  opts.n_tags = 500;
  opts.runs = 6;
  opts.n_threads = 1;
  const auto serial = sim::RunExperiment(core::MakeIrsaFactory(), opts);
  opts.n_threads = 4;
  const auto parallel = sim::RunExperiment(core::MakeIrsaFactory(), opts);
  EXPECT_EQ(serial.total_slots.mean(), parallel.total_slots.mean());
  EXPECT_EQ(serial.tags_read.mean(), parallel.tags_read.mean());
  EXPECT_EQ(serial.tag_transmissions.mean(),
            parallel.tag_transmissions.mean());
  EXPECT_EQ(serial.throughput.mean(), parallel.throughput.mean());
}

TEST(Irsa, TraceByteIdenticalAcrossThreadCounts) {
  // Same seed → same replica pattern, independent of --threads: the
  // serialized trace (every slot, ack and frame event) must not change.
  const auto factory = core::MakeIrsaFactory();
  const std::string reference =
      trace::EncodeTrace(RecordTrace(factory, 200, 4, 9, 1));
  for (std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(trace::EncodeTrace(RecordTrace(factory, 200, 4, 9, threads)),
              reference)
        << "threads=" << threads;
  }
}

TEST(Irsa, ReplayRoundTrips) {
  const auto factory = core::MakeIrsaFactory();
  const trace::TraceFile file = RecordTrace(factory, 150, 2);
  const service::ReplayReport report = service::VerifyReplay(file, factory);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(Irsa, SlotMixAndAttributionConsistent) {
  const auto m = sim::RunOnce(core::MakeIrsaFactory(), 2000, 9);
  EXPECT_GT(m.collision_slots, 0u);
  EXPECT_GT(m.empty_slots, 0u);
  EXPECT_EQ(m.TotalSlots(),
            m.empty_slots + m.singleton_slots + m.collision_slots);
  EXPECT_EQ(m.ids_from_singletons + m.ids_from_collisions, 2000u);
  // Cancellation must be doing real work.
  EXPECT_GT(m.ids_from_collisions, 500u);
}

// ---- CRDSA: IRSA with a point-mass Λ(x) = x^d --------------------------

IrsaConfig Crdsa3() {
  IrsaConfig config;
  config.degrees = DegreeDistribution::Crdsa3();
  config.target_load = 0.8;  // CRDSA-3 sustains higher load
  return config;
}

TEST(Crdsa, NamesItselfByDegree) {
  const std::vector<TagId> none;
  EXPECT_EQ(core::MakeCrdsaFactory()(none, Pcg32(1))->name(), "CRDSA-2");
  EXPECT_EQ(core::MakeIrsaFactory({}, Crdsa3())(none, Pcg32(1))->name(),
            "CRDSA-3");
  EXPECT_EQ(core::MakeIrsaFactory()(none, Pcg32(1))->name(), "IRSA");
}

// Every RunMetrics field of the dedicated twin-copy CRDSA implementation
// that IRSA over a point-mass Λ replaced, captured from it at n = 1000.
struct CrdsaPin {
  std::uint64_t seed, empty, singleton, collision, frames, from_singletons,
      from_collisions, transmissions;
  double elapsed;
};

void ExpectPinned(const sim::ProtocolFactory& factory,
                  std::span<const CrdsaPin> pins) {
  for (const CrdsaPin& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    const sim::RunMetrics m = sim::RunOnce(factory, 1000, pin.seed);
    EXPECT_EQ(m.empty_slots, pin.empty);
    EXPECT_EQ(m.singleton_slots, pin.singleton);
    EXPECT_EQ(m.collision_slots, pin.collision);
    EXPECT_EQ(m.frames, pin.frames);
    EXPECT_EQ(m.tags_read, 1000u);
    EXPECT_EQ(m.ids_from_singletons, pin.from_singletons);
    EXPECT_EQ(m.ids_from_collisions, pin.from_collisions);
    EXPECT_EQ(m.tag_transmissions, pin.transmissions);
    EXPECT_EQ(m.duplicate_receptions, 0u);
    EXPECT_EQ(m.redundant_resolutions, 0u);
    EXPECT_EQ(m.unresolved_records, 0u);
    EXPECT_EQ(m.ids_injected, 0u);
    EXPECT_EQ(m.records_evicted, 0u);
    EXPECT_EQ(m.records_abandoned, 0u);
    EXPECT_EQ(m.reader_crashes, 0u);
    EXPECT_DOUBLE_EQ(m.elapsed_seconds, pin.elapsed);
  }
}

TEST(Irsa, Crdsa2DegreesReproduceCrdsaBehavior) {
  // Λ(x) = x^2 at CRDSA's load rule is CRDSA, run for run.
  IrsaConfig config;
  config.degrees = DegreeDistribution::Crdsa2();
  config.target_load = 0.65;
  const CrdsaPin pins[] = {
      {1, 543, 714, 758, 4, 610, 390, 2610, 5.630071200000161},
      {2, 536, 649, 734, 5, 553, 447, 2484, 5.361839520000148},
      {3, 516, 671, 704, 5, 573, 427, 2442, 5.283605280000144},
  };
  ExpectPinned(core::MakeIrsaFactory({}, config), pins);
  ExpectPinned(core::MakeCrdsaFactory(), pins);
}

TEST(Irsa, Crdsa3DegreesReproduceCrdsa3Behavior) {
  const CrdsaPin pins[] = {
      {1, 115, 271, 872, 2, 249, 751, 3000, 3.5149526400000535},
      {2, 128, 277, 853, 2, 256, 744, 3000, 3.5149526400000535},
      {3, 228, 483, 1611, 4, 432, 568, 5553, 6.487853760000205},
  };
  ExpectPinned(core::MakeIrsaFactory({}, Crdsa3()), pins);
}

TEST(Crdsa, ReadsEveryTag) {
  for (std::size_t n : {0ul, 1ul, 2ul, 100ul, 2000ul}) {
    const auto m = sim::RunOnce(core::MakeCrdsaFactory(), n, 3);
    EXPECT_EQ(m.tags_read, n) << "n=" << n;
  }
}

TEST(Crdsa, BeatsPlainDfsaViaCancellation) {
  // Interference cancellation pushes CRDSA's per-slot efficiency past
  // 1/e, so it needs fewer slots than DFSA for the same population.
  sim::ExperimentOptions opts;
  opts.n_tags = 5000;
  opts.runs = 5;
  const auto crdsa = sim::RunExperiment(core::MakeCrdsaFactory(), opts);
  const auto dfsa = sim::RunExperiment(core::MakeDfsaFactory(), opts);
  EXPECT_EQ(crdsa.runs_capped, 0u);
  EXPECT_LT(crdsa.total_slots.mean(), dfsa.total_slots.mean() * 0.85);
}

TEST(Crdsa, EfficiencyNearPublishedPeak) {
  // CRDSA-2's published peak throughput is ~0.55 IDs/slot at load ~0.65.
  sim::ExperimentOptions opts;
  opts.n_tags = 5000;
  opts.runs = 5;
  const auto agg = sim::RunExperiment(core::MakeCrdsaFactory(), opts);
  const double efficiency = 5000.0 / agg.total_slots.mean();
  EXPECT_GT(efficiency, 0.42);
  EXPECT_LT(efficiency, 0.60);
}

TEST(Crdsa, TwinCopiesPerParticipationRound) {
  // Each CRDSA participation round costs two copies — but cancellation
  // reads most tags in ~1.2 rounds, so the *total* energy (~2.4 tx/tag)
  // ends up comparable to DFSA's ~2.7 single-copy rounds. Assert both
  // halves: at least two transmissions per tag, and a total within the
  // same ballpark as DFSA rather than double it.
  const auto crdsa = sim::RunOnce(core::MakeCrdsaFactory(), 2000, 5);
  const auto dfsa = sim::RunOnce(core::MakeDfsaFactory(), 2000, 5);
  const double crdsa_tx_per_tag =
      static_cast<double>(crdsa.tag_transmissions) / 2000.0;
  const double dfsa_tx_per_tag =
      static_cast<double>(dfsa.tag_transmissions) / 2000.0;
  EXPECT_GE(crdsa_tx_per_tag, 2.0);
  EXPECT_NEAR(dfsa_tx_per_tag, 2.72, 0.15);  // e/(e-1) rounds, one copy
  EXPECT_LT(crdsa_tx_per_tag, 1.5 * dfsa_tx_per_tag);
}

TEST(Crdsa, CancelledIdsAttributedToCollisions) {
  const auto m = sim::RunOnce(core::MakeCrdsaFactory(), 3000, 7);
  // A solid fraction of IDs should be recovered from collided copies.
  EXPECT_GT(m.ids_from_collisions, 500u);
  EXPECT_EQ(m.ids_from_singletons + m.ids_from_collisions, 3000u);
}

TEST(Crdsa, ThreeCopiesImproveOnTwoAtSameLoadRule) {
  // CRDSA-3 resolves deeper stopping sets at modest extra energy.
  sim::ExperimentOptions opts;
  opts.n_tags = 5000;
  opts.runs = 5;
  const auto two = sim::RunExperiment(core::MakeCrdsaFactory(), opts);
  const auto three =
      sim::RunExperiment(core::MakeIrsaFactory({}, Crdsa3()), opts);
  EXPECT_EQ(three.runs_capped, 0u);
  EXPECT_LT(three.total_slots.mean(), two.total_slots.mean() * 1.05);
}

TEST(Crdsa, SlotMixRecorded) {
  const auto m = sim::RunOnce(core::MakeCrdsaFactory(), 2000, 9);
  EXPECT_GT(m.collision_slots, 0u);
  EXPECT_GT(m.empty_slots, 0u);
  EXPECT_GT(m.singleton_slots, 0u);
  EXPECT_EQ(m.TotalSlots(),
            m.empty_slots + m.singleton_slots + m.collision_slots);
}

// ---- checkpoint input validation -----------------------------------------

using testing_blob::Field;
using testing_blob::NextVarint;
using testing_blob::Patch;
using testing_blob::ValueAt;

// The varints of an Irsa::SaveState blob that a restore must check,
// located by walking the layout SaveState writes.
struct BlobFields {
  Field unread_tag;
  Field frame_size;
  Field slot_cursor;
  Field slot_tag;       // first tag of the first occupied slot
  Field record_tag[2];  // first two constituents of the first record
};

BlobFields Walk(std::string_view blob, bool seeded) {
  ser::Reader r{blob};
  Pcg32 rng;
  sim::RunMetrics metrics;
  EXPECT_TRUE(ReadPcg32(r, rng));
  EXPECT_TRUE(sim::ReadRunMetrics(r, metrics));
  r.Varint();  // slot index
  BlobFields b;
  const std::uint64_t unread = r.Varint();
  for (std::uint64_t i = 0; i < unread; ++i) {
    const Field f = NextVarint(r);
    if (i == 0) b.unread_tag = f;
  }
  const std::uint64_t n_tags = r.Varint();
  for (std::uint64_t i = 0; i < 2 * n_tags; ++i) r.Bool();  // read, present
  b.frame_size = NextVarint(r);
  b.slot_cursor = NextVarint(r);
  r.Varint();  // frame transmissions
  const std::uint64_t slots = r.Varint();
  for (std::uint64_t s = 0; s < slots; ++s) {
    const std::uint64_t size = r.Varint();
    for (std::uint64_t i = 0; i < size; ++i) {
      const Field f = NextVarint(r);
      if (b.slot_tag.len == 0) b.slot_tag = f;
    }
  }
  r.Bool();  // needs_frame
  r.Bool();  // finished
  if (seeded) {
    const std::uint64_t records = r.Varint();
    for (std::uint64_t j = 0; j < records; ++j) {
      r.Varint();  // id
      const std::uint64_t size = r.Varint();
      for (std::uint64_t i = 0; i < size; ++i) {
        const Field f = NextVarint(r);
        if (j == 0 && i < 2) b.record_tag[i] = f;
      }
    }
    r.Varint();  // next record id
  }
  EXPECT_TRUE(r.ok && r.AtEnd());
  return b;
}

// A real mid-run blob; seeded runs step on until a record is stored.
std::string MidRunBlob(const sim::ProtocolFactory& factory,
                       std::span<const TagId> population, bool seeded) {
  auto protocol = factory(population, Pcg32(5, 9));
  while (!protocol->Finished() &&
         (protocol->metrics().frames < 2 ||
          (seeded && protocol->OpenPhyRecords() == 0))) {
    protocol->Step();
  }
  for (int i = 0; i < 3; ++i) protocol->Step();  // into the frame
  std::string blob;
  protocol->SaveState(&blob);
  return blob;
}

// A checkpoint whose CRC is valid can still carry a tag index outside the
// population or an inconsistent frame; indexing by either would run past
// the reader's arrays. Restore must refuse it.
TEST(IrsaCheckpoint, RestoreRejectsPatchedBlobs) {
  Pcg32 pop_rng(5, 8);
  const auto population = sim::MakePopulation(300, pop_rng);
  const std::uint64_t n = population.size();
  const auto restores = [&](const sim::ProtocolFactory& factory,
                            const std::string& blob) {
    return factory(population, Pcg32(5, 9))->RestoreState(blob);
  };

  const auto irsa = core::MakeIrsaFactory();
  const std::string blob = MidRunBlob(irsa, population, false);
  const BlobFields f = Walk(blob, false);
  ASSERT_GT(f.unread_tag.len, 0u);
  ASSERT_GT(f.slot_tag.len, 0u);
  ASSERT_TRUE(restores(irsa, blob));
  EXPECT_FALSE(restores(irsa, Patch(blob, f.unread_tag, n)));
  EXPECT_FALSE(restores(irsa, Patch(blob, f.slot_tag, n)));
  EXPECT_FALSE(restores(irsa, Patch(blob, f.slot_tag, ~std::uint64_t{0})));
  const std::uint64_t frame = ValueAt(blob, f.frame_size);
  EXPECT_FALSE(restores(irsa, Patch(blob, f.slot_cursor, frame + 1)));
  EXPECT_FALSE(restores(irsa, Patch(blob, f.slot_cursor, frame)));
  EXPECT_FALSE(restores(irsa, Patch(blob, f.frame_size, frame + 1)));

  const auto seeded = core::MakeSeededFactory();
  const std::string sblob = MidRunBlob(seeded, population, true);
  const BlobFields g = Walk(sblob, true);
  ASSERT_GT(g.record_tag[1].len, 0u);
  ASSERT_TRUE(restores(seeded, sblob));
  EXPECT_FALSE(restores(seeded, Patch(sblob, g.record_tag[0], n)));
  EXPECT_FALSE(restores(
      seeded, Patch(sblob, g.record_tag[1], ValueAt(sblob, g.record_tag[0]))));
  EXPECT_FALSE(restores(seeded, Patch(sblob, g.slot_tag, n + 7)));
}

}  // namespace
}  // namespace anc::protocols
