#include "core/factories.h"

#include <gtest/gtest.h>

#include "sim/runner.h"

namespace anc::core {
namespace {

TEST(Scat, ReadsEveryTag) {
  for (std::size_t n : {1ul, 100ul, 2000ul}) {
    const auto m = sim::RunOnce(MakeScatFactory({}), n, 5);
    EXPECT_EQ(m.tags_read, n) << "n=" << n;
  }
}

TEST(Scat, UsesFarFewerSlotsThanAloha) {
  // SCAT's collision awareness cuts the slot count from e*N to
  // ~N/0.585 — but its per-slot advertisement and 96-bit ID
  // acknowledgements eat the wall-clock gain (Section V-A's motivation
  // for FCAT). Assert both halves of that story.
  sim::ExperimentOptions opts;
  opts.n_tags = 3000;
  opts.runs = 5;
  const auto scat = sim::RunExperiment(MakeScatFactory({}), opts);
  const auto aloha = sim::RunExperiment(MakeAlohaFactory(), opts);
  EXPECT_LT(scat.total_slots.mean(), aloha.total_slots.mean() * 0.70);
  EXPECT_LT(scat.throughput.mean(), aloha.throughput.mean() * 1.2);
}

TEST(Scat, FcatBeatsScatOnOverheads) {
  // Section V-A: SCAT's per-slot advertisement and 96-bit ID
  // acknowledgements are the inefficiencies FCAT removes. Slot counts are
  // comparable; wall-clock throughput must favor FCAT.
  sim::ExperimentOptions opts;
  opts.n_tags = 3000;
  opts.runs = 5;
  FcatOptions fcat;
  fcat.initial_estimate = 3000;
  const auto f = sim::RunExperiment(MakeFcatFactory(fcat), opts);
  const auto s = sim::RunExperiment(MakeScatFactory({}), opts);
  EXPECT_GT(f.throughput.mean(), s.throughput.mean() * 1.15);
  EXPECT_NEAR(f.total_slots.mean(), s.total_slots.mean(),
              0.10 * s.total_slots.mean());
}

TEST(Scat, UsesOracleBacklog) {
  // SCAT knows N (pre-step estimation): its load should be on target from
  // the first slot, giving the theoretical slot mix right away.
  sim::ExperimentOptions opts;
  opts.n_tags = 5000;
  opts.runs = 5;
  const auto agg = sim::RunExperiment(MakeScatFactory({}), opts);
  const double total = agg.total_slots.mean();
  // Poisson mix at omega = 1.414: 24.3% empty.
  EXPECT_NEAR(agg.empty_slots.mean() / total, 0.243, 0.03);
}

TEST(Scat, LambdaThreeFaster) {
  sim::ExperimentOptions opts;
  opts.n_tags = 2000;
  opts.runs = 5;
  ScatOptions l3;
  l3.lambda = 3;
  const auto s2 = sim::RunExperiment(MakeScatFactory({}), opts);
  const auto s3 = sim::RunExperiment(MakeScatFactory(l3), opts);
  EXPECT_GT(s3.throughput.mean(), s2.throughput.mean());
}

}  // namespace
}  // namespace anc::core
