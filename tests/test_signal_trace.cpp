// Determinism of the batched waveform phy under every threading knob.
//
// Two independent axes can move work across threads: the runner's
// per-run worker pool (--threads) and SignalPhy's intra-run demodulation
// pool (demod_pool_threads). Both must be invisible in every output —
// the serialized slot-level trace is required to be byte-identical, and
// a completed run must leave no collision record open in the phy arena.
#include <gtest/gtest.h>

#include <string>

#include "core/factories.h"
#include "read_back.h"
#include "sim/population.h"
#include "sim/runner.h"
#include "trace/binary.h"

namespace anc {
namespace {

core::FcatSignalOptions SignalOptions(unsigned demod_pool) {
  core::FcatSignalOptions o;
  o.signal.snr_db = 25.0;
  o.signal.demod_pool_threads = demod_pool;
  return o;
}

std::string TraceBytes(std::size_t threads, unsigned demod_pool) {
  sim::ExperimentOptions eo;
  eo.n_tags = 40;
  eo.runs = 3;
  eo.n_threads = threads;
  eo.max_slots_per_tag = 600;
  trace::MemorySink recorded;
  eo.trace = &recorded;
  sim::RunExperiment(core::MakeFcatSignalFactory(SignalOptions(demod_pool)),
                     eo);
  return trace::EncodeTrace(recorded.TakeFile());
}

TEST(SignalTrace, ByteIdenticalAcrossThreadsAndDemodPool) {
  const std::string reference = TraceBytes(/*threads=*/1, /*demod_pool=*/0);
  ASSERT_GT(reference.size(), 16u);
  struct Config {
    std::size_t threads;
    unsigned demod_pool;
  };
  for (const Config& c :
       {Config{4, 0}, Config{1, 3}, Config{4, 2}}) {
    EXPECT_EQ(TraceBytes(c.threads, c.demod_pool), reference)
        << "threads=" << c.threads << " demod_pool=" << c.demod_pool;
  }
}

TEST(SignalTrace, MetricsIdenticalWithDemodPool) {
  sim::ExperimentOptions eo;
  eo.n_tags = 60;
  eo.runs = 2;
  eo.max_slots_per_tag = 600;
  const auto serial =
      sim::RunExperiment(core::MakeFcatSignalFactory(SignalOptions(0)), eo);
  const auto pooled =
      sim::RunExperiment(core::MakeFcatSignalFactory(SignalOptions(3)), eo);
  EXPECT_EQ(serial.total_slots.mean(), pooled.total_slots.mean());
  EXPECT_EQ(serial.ids_from_collisions.mean(),
            pooled.ids_from_collisions.mean());
  EXPECT_EQ(serial.throughput.mean(), pooled.throughput.mean());
  EXPECT_EQ(serial.tags_read.mean(), pooled.tags_read.mean());
}

TEST(SignalTrace, NoOpenRecordsAfterCompletedRun) {
  // The batched API makes the engine responsible for releasing every
  // record handle it was issued; the arena must drain fully both with
  // and without the demodulation pool.
  for (unsigned demod_pool : {0u, 2u}) {
    Pcg32 pop_rng(11);
    const auto population = sim::MakePopulation(60, pop_rng);
    const auto protocol =
        core::MakeFcatSignal(population, Pcg32(7), SignalOptions(demod_pool));
    std::size_t guard = 0;
    while (!protocol->Finished() && ++guard < 600 * 60) protocol->Step();
    ASSERT_TRUE(protocol->Finished()) << "demod_pool=" << demod_pool;
    EXPECT_EQ(protocol->phy().OpenRecords(), 0u)
        << "demod_pool=" << demod_pool;
    EXPECT_EQ(protocol->OpenPhyRecords(), 0u);
  }
}

// ---- the waveform golden, re-recorded in-process ---------------------------

// The v1 encoding of what `trace_inspect record --protocol=fcat-signal
// --n=40 --runs=2 --seed=1 --demod-pool=<pool>` records.
std::string RecordSignalGolden(unsigned demod_pool) {
  core::FcatSignalOptions o;
  o.signal.demod_pool_threads = demod_pool;
  sim::ExperimentOptions eo;
  eo.n_tags = 40;
  eo.runs = 2;
  eo.base_seed = 1;
  trace::MemorySink recorded;
  eo.trace = &recorded;
  sim::RunExperiment(core::MakeFcatSignalFactory(o), eo);
  return trace::EncodeTrace(recorded.TakeFile());
}

TEST(SignalGolden, FcatSignalSmokeReRecordsByteIdentical) {
  // The trace pins every stored float of the waveform path: synthesis,
  // channel, noise, mixing, subtraction and demodulation all feed it.
  const std::string golden = testing_trace::GoldenV1("fcat_signal_smoke");
  ASSERT_FALSE(golden.empty());
  for (unsigned demod_pool : {0u, 2u}) {
    EXPECT_TRUE(RecordSignalGolden(demod_pool) == golden)
        << "fcat_signal_smoke.ancs drifted at demod_pool=" << demod_pool;
  }
}

}  // namespace
}  // namespace anc
