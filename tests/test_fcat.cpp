#include "core/factories.h"

#include <gtest/gtest.h>

#include "sim/population.h"
#include "sim/runner.h"

namespace anc::core {
namespace {

TEST(Fcat, ReadsEveryTagExactlyOnce) {
  for (std::size_t n : {0ul, 1ul, 2ul, 50ul, 1000ul}) {
    const auto m = sim::RunOnce(MakeFcatFactory({}), n, 5);
    EXPECT_EQ(m.tags_read, n) << "n=" << n;
    EXPECT_EQ(m.duplicate_receptions, 0u);
    EXPECT_EQ(m.ids_from_singletons + m.ids_from_collisions, n);
  }
}

TEST(Fcat, ThroughputNearPaperAtTenThousand) {
  FcatOptions o;
  o.initial_estimate = 10000;  // the paper's informed start
  sim::ExperimentOptions opts;
  opts.n_tags = 10000;
  opts.runs = 5;
  const auto agg = sim::RunExperiment(MakeFcatFactory(o), opts);
  EXPECT_EQ(agg.runs_capped, 0u);
  // Paper Table I: 201.3; our honest advertisement/ack accounting sits a
  // couple of percent below.
  EXPECT_NEAR(agg.throughput.mean(), 201.3, 8.0);
}

TEST(Fcat, SlotCompositionMatchesPaperTable2) {
  FcatOptions o;
  o.initial_estimate = 10000;
  sim::ExperimentOptions opts;
  opts.n_tags = 10000;
  opts.runs = 5;
  const auto agg = sim::RunExperiment(MakeFcatFactory(o), opts);
  // Paper: empty 4189, singleton 5861, collision 7016, total 17066.
  EXPECT_NEAR(agg.empty_slots.mean(), 4189, 450);
  EXPECT_NEAR(agg.singleton_slots.mean(), 5861, 350);
  EXPECT_NEAR(agg.collision_slots.mean(), 7016, 400);
  EXPECT_NEAR(agg.total_slots.mean(), 17066, 700);
}

TEST(Fcat, CollisionRecoveredShareMatchesPaperTable3) {
  FcatOptions o;
  o.initial_estimate = 10000;
  sim::ExperimentOptions opts;
  opts.n_tags = 10000;
  opts.runs = 5;
  const auto agg = sim::RunExperiment(MakeFcatFactory(o), opts);
  // Paper Table III: 4139 of 10000 IDs from collision slots (~41%).
  EXPECT_NEAR(agg.ids_from_collisions.mean() / 10000.0, 0.414, 0.03);
}

TEST(Fcat, LambdaOrderingHolds) {
  sim::ExperimentOptions opts;
  opts.n_tags = 4000;
  opts.runs = 5;
  double prev = 0.0;
  for (unsigned lambda : {2u, 3u, 4u}) {
    FcatOptions o;
    o.lambda = lambda;
    o.initial_estimate = 4000;
    const auto agg = sim::RunExperiment(MakeFcatFactory(o), opts);
    EXPECT_GT(agg.throughput.mean(), prev) << "lambda=" << lambda;
    prev = agg.throughput.mean();
  }
}

TEST(Fcat, ColdStartConvergesWithoutPreEstimate) {
  // The embedded estimator must bootstrap from nothing (Section V-C's
  // whole point) and still finish efficiently.
  const auto m = sim::RunOnce(MakeFcatFactory({}), 20000, 9);
  EXPECT_EQ(m.tags_read, 20000u);
  EXPECT_LT(m.TotalSlots(), 2 * 20000u);
}

TEST(Fcat, UnresolvableNoiseDegradesGracefully) {
  // Section IV-E: when resolution randomly fails, throughput drops but
  // every tag is still identified.
  FcatOptions lossy;
  lossy.resolution_success_prob = 0.5;
  const auto lossy_run = sim::RunOnce(MakeFcatFactory(lossy), 2000, 3);
  const auto clean_run = sim::RunOnce(MakeFcatFactory({}), 2000, 3);
  EXPECT_EQ(lossy_run.tags_read, 2000u);
  EXPECT_LT(lossy_run.Throughput(), clean_run.Throughput());
  EXPECT_GT(lossy_run.Throughput(), 0.5 * clean_run.Throughput());
}

TEST(Fcat, TotallyUnresolvablePhyStillTerminates) {
  FcatOptions dead;
  dead.resolution_success_prob = 0.0;
  const auto m = sim::RunOnce(MakeFcatFactory(dead), 1000, 3);
  EXPECT_EQ(m.tags_read, 1000u);
  EXPECT_EQ(m.ids_from_collisions, 0u);
}

TEST(Fcat, SingletonCorruptionRetries) {
  FcatOptions noisy;
  noisy.singleton_corrupt_prob = 0.2;
  const auto m = sim::RunOnce(MakeFcatFactory(noisy), 1000, 4);
  EXPECT_EQ(m.tags_read, 1000u);
}

TEST(Fcat, HashModeEquivalentToSampledMode) {
  // The faithful H(ID|i) rule and the binomial sampling are the same
  // process statistically: slot totals should agree within noise.
  sim::ExperimentOptions opts;
  opts.n_tags = 1500;
  opts.runs = 8;
  FcatOptions hash;
  hash.hash_mode = true;
  hash.initial_estimate = 1500;
  FcatOptions sampled;
  sampled.initial_estimate = 1500;
  const auto h = sim::RunExperiment(MakeFcatFactory(hash), opts);
  const auto s = sim::RunExperiment(MakeFcatFactory(sampled), opts);
  EXPECT_NEAR(h.total_slots.mean(), s.total_slots.mean(),
              0.05 * s.total_slots.mean());
  EXPECT_NEAR(h.ids_from_collisions.mean(), s.ids_from_collisions.mean(),
              0.10 * s.ids_from_collisions.mean() + 10);
}

TEST(Fcat, FrameSizeOneDegeneratesButWorks) {
  FcatOptions o;
  o.frame_size = 4;
  o.initial_estimate = 500;
  const auto m = sim::RunOnce(MakeFcatFactory(o), 500, 6);
  EXPECT_EQ(m.tags_read, 500u);
}

TEST(Fcat, NoOpenRecordsLeakUnaccounted) {
  const auto m = sim::RunOnce(MakeFcatFactory({}), 3000, 8);
  // Some records legitimately end unresolved (k > lambda, or all
  // constituents learned elsewhere); they are reported, not leaked.
  EXPECT_GT(m.unresolved_records, 0u);
  EXPECT_LT(m.unresolved_records, m.collision_slots);
}

TEST(Fcat, TerminationReleasesEveryStoredSignal) {
  // The unresolved records above are reported, then released: after the
  // protocol finishes, the phy's record store must be empty (the seed
  // leaked these signals until the reader object died).
  anc::Pcg32 master = sim::RunRng(0, 8);
  anc::Pcg32 pop_rng = master.Split();
  anc::Pcg32 proto_rng = master.Split();
  const auto population = sim::MakePopulation(3000, pop_rng);
  const auto protocol = MakeFcat(population, proto_rng, FcatOptions{});
  while (!protocol->Finished()) protocol->Step();
  EXPECT_GT(protocol->metrics().unresolved_records, 0u);
  EXPECT_EQ(protocol->OpenPhyRecords(), 0u);
}

}  // namespace
}  // namespace anc::core
