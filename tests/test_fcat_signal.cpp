// End-to-end FCAT over the full waveform phy: the complete protocol logic
// driving real MSK synthesis, mixing, AWGN, subtraction and CRC checks.
#include <gtest/gtest.h>

#include "core/factories.h"
#include "sim/population.h"
#include "sim/runner.h"

namespace anc::core {
namespace {

FcatSignalOptions CleanChannel() {
  FcatSignalOptions o;
  o.signal.snr_db = 25.0;
  return o;
}

TEST(FcatSignal, ReadsEveryTag) {
  for (std::size_t n : {1ul, 20ul, 150ul}) {
    const auto m =
        sim::RunOnce(MakeFcatSignalFactory(CleanChannel()), n, 5, 400);
    EXPECT_EQ(m.tags_read, n) << "n=" << n;
    EXPECT_EQ(m.duplicate_receptions, 0u);
  }
}

TEST(FcatSignal, ResolvesCollisionsOnRealWaveforms) {
  const auto m =
      sim::RunOnce(MakeFcatSignalFactory(CleanChannel()), 200, 7, 400);
  EXPECT_EQ(m.tags_read, 200u);
  // At 25 dB SNR the 2-collision records should mostly resolve: a large
  // share of IDs comes from collision slots, as in Table III (~40%).
  EXPECT_GT(m.ids_from_collisions, 40u);
}

TEST(FcatSignal, AgreesWithIdealPhy) {
  // The paper's abstract model and the waveform simulation must tell the
  // same story at high SNR: comparable slot totals and collision yields.
  constexpr std::size_t kTags = 200;
  FcatOptions ideal;
  ideal.initial_estimate = kTags;
  FcatSignalOptions wave = CleanChannel();
  wave.signal.snr_db = 30.0;

  sim::ExperimentOptions opts;
  opts.n_tags = kTags;
  opts.runs = 6;
  opts.max_slots_per_tag = 400;
  const auto ideal_agg = sim::RunExperiment(MakeFcatFactory(ideal), opts);
  const auto wave_agg =
      sim::RunExperiment(MakeFcatSignalFactory(wave), opts);

  EXPECT_EQ(wave_agg.runs_capped, 0u);
  EXPECT_NEAR(wave_agg.total_slots.mean(), ideal_agg.total_slots.mean(),
              0.25 * ideal_agg.total_slots.mean());
  EXPECT_NEAR(wave_agg.ids_from_collisions.mean(),
              ideal_agg.ids_from_collisions.mean(),
              0.35 * ideal_agg.ids_from_collisions.mean() + 5.0);
}

TEST(FcatSignal, ModerateSnrStillCompletes) {
  // Section IV-E: unresolvable collision slots only cost efficiency.
  FcatSignalOptions noisy;
  noisy.signal.snr_db = 14.0;
  const auto m = sim::RunOnce(MakeFcatSignalFactory(noisy), 100, 9, 800);
  EXPECT_EQ(m.tags_read, 100u);
}

TEST(FcatSignal, DeepNoiseDegradesWithoutCorruption) {
  // At 5 dB the weakest-channel tags can be genuinely unreachable within
  // the slot budget (the regime Section IV-E says to avoid). The protocol
  // must degrade — fewer reads — but never mis-identify.
  FcatSignalOptions bad;
  bad.signal.snr_db = 5.0;
  const auto m = sim::RunOnce(MakeFcatSignalFactory(bad), 60, 9, 300);
  EXPECT_GE(m.tags_read, 30u);
  EXPECT_LE(m.tags_read, 60u);
  EXPECT_EQ(m.duplicate_receptions, 0u);
}

TEST(FcatSignal, TimingJitterKillsCollisionYieldNotCompleteness) {
  // Section II-B synchronization ablation: misaligned constituents make
  // subtraction residues undecodable, but singleton reading continues.
  FcatSignalOptions aligned = CleanChannel();
  FcatSignalOptions jittered = CleanChannel();
  jittered.signal.max_timing_jitter_samples = 16;  // two full bits
  const auto a = sim::RunOnce(MakeFcatSignalFactory(aligned), 120, 5, 800);
  const auto j = sim::RunOnce(MakeFcatSignalFactory(jittered), 120, 5, 800);
  EXPECT_EQ(a.tags_read, 120u);
  EXPECT_EQ(j.tags_read, 120u);
  EXPECT_LT(j.ids_from_collisions, a.ids_from_collisions / 2 + 3);
}

TEST(FcatSignal, LeastSquaresToleratesCfoDirectDoesNot) {
  auto base = CleanChannel();
  base.signal.max_cfo_per_sample = 0.002;  // phase drifts between slots
  auto direct = base;
  direct.signal.subtraction = signal::SubtractionMode::kDirect;
  auto ls = base;
  ls.signal.subtraction = signal::SubtractionMode::kLeastSquares;
  const auto d = sim::RunOnce(MakeFcatSignalFactory(direct), 120, 7, 800);
  const auto l = sim::RunOnce(MakeFcatSignalFactory(ls), 120, 7, 800);
  EXPECT_EQ(d.tags_read, 120u);
  EXPECT_EQ(l.tags_read, 120u);
  EXPECT_GT(l.ids_from_collisions, d.ids_from_collisions);
}

TEST(FcatSignal, CaptureTradesResolutionForDirectReads) {
  // Power-diverse channels: enabling capture yields direct decodes from
  // collision slots but starves the subtraction cascade of references.
  auto base = CleanChannel();
  base.signal.min_gain = 0.3;
  base.signal.max_gain = 2.0;
  auto with_capture = base;
  with_capture.signal.enable_capture = true;
  sim::ExperimentOptions opts;
  opts.n_tags = 150;
  opts.runs = 5;
  opts.max_slots_per_tag = 800;
  const auto off =
      sim::RunExperiment(MakeFcatSignalFactory(base), opts);
  const auto on =
      sim::RunExperiment(MakeFcatSignalFactory(with_capture), opts);
  EXPECT_EQ(off.runs_capped, 0u);
  EXPECT_EQ(on.runs_capped, 0u);
  // Capture shifts provenance away from collision-record resolution.
  EXPECT_LT(on.ids_from_collisions.mean(),
            off.ids_from_collisions.mean() * 0.7);
  // Net slot effect stays within a band (seed noise at this scale): the
  // quantitative sweep lives in bench_capture.
  EXPECT_LT(on.total_slots.mean(), off.total_slots.mean() * 1.25);
}

TEST(FcatSignal, TerminationReleasesEveryStoredWaveform) {
  // Signal-phy records hold sampled waveforms, so a leak here is real
  // memory, not just bookkeeping: the store must be empty at the end.
  anc::Pcg32 master(5, 0x9E3779B97F4A7C15ULL + 5);
  anc::Pcg32 pop_rng = master.Split();
  anc::Pcg32 proto_rng = master.Split();
  const auto population = sim::MakePopulation(100, pop_rng);
  const auto protocol = MakeFcatSignal(population, proto_rng, CleanChannel());
  std::uint64_t guard = 0;
  while (!protocol->Finished() && ++guard < 100000) protocol->Step();
  ASSERT_TRUE(protocol->Finished());
  EXPECT_EQ(protocol->metrics().tags_read, 100u);
  EXPECT_EQ(protocol->OpenPhyRecords(), 0u);
}

TEST(FcatSignal, LambdaThreeResolvesTripleCollisions) {
  FcatSignalOptions o = CleanChannel();
  o.lambda = 3;
  const auto m = sim::RunOnce(MakeFcatSignalFactory(o), 200, 11, 400);
  EXPECT_EQ(m.tags_read, 200u);
  // lambda = 3 pushes the load higher and recovers more from collisions.
  EXPECT_GT(m.ids_from_collisions, 60u);
}

}  // namespace
}  // namespace anc::core
