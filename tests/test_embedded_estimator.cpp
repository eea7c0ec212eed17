#include "core/estimator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/estimator_model.h"
#include "blob_patch.h"
#include "common/rng.h"
#include "common/stats.h"

namespace anc::core {
namespace {

// Simulates the collision count of one frame at the true population and
// the advertised probability.
std::uint64_t SimulateFrameCollisions(std::uint64_t n, double p,
                                      std::uint64_t f, anc::Pcg32& rng) {
  std::uint64_t nc = 0;
  for (std::uint64_t s = 0; s < f; ++s) {
    if (rng.Binomial(n, p) >= 2) ++nc;
  }
  return nc;
}

TEST(EmbeddedEstimator, ConvergesToTruePopulation) {
  const std::uint64_t n = 10000;
  const double omega = 1.414;
  const double p = omega / static_cast<double>(n);
  anc::Pcg32 rng(1);
  EmbeddedEstimator est(30, omega, 30.0);
  for (int frame = 0; frame < 400; ++frame) {
    est.Update(SimulateFrameCollisions(n, p, 30, rng), p, 0);
  }
  // Bias ~1% (Fig. 3); allow 3%.
  EXPECT_NEAR(est.EstimatedTotal(), static_cast<double>(n), 0.03 * n);
}

TEST(EmbeddedEstimator, PerFrameVarianceMatchesDeltaMethod) {
  // One-frame estimates of the *implemented* Eq. 12 estimator scatter
  // with the constant-omega delta-method variance (~0.0117 at
  // omega = 1.414, f = 30). The paper's appendix value 0.0342 (Eq. 25)
  // analyzes the varying-omega inversion instead — see
  // EstimatorRelativeVariance's doc comment.
  const std::uint64_t n = 10000;
  const double omega = 1.414;
  const double p = omega / static_cast<double>(n);
  anc::Pcg32 rng(2);
  anc::RunningStats ratios;
  for (int trial = 0; trial < 3000; ++trial) {
    EmbeddedEstimator est(30, omega, 30.0);
    est.Update(SimulateFrameCollisions(n, p, 30, rng), p, 0);
    ratios.Add(est.EstimatedTotal() / static_cast<double>(n));
  }
  const double predicted =
      analysis::EstimatorRelativeVarianceEq12(omega, 30);
  EXPECT_NEAR(ratios.variance(), predicted, 0.25 * predicted);
  // And it is clearly below the paper's varying-omega figure.
  EXPECT_LT(ratios.variance(),
            analysis::EstimatorRelativeVariance(omega, 30) * 0.6);
}

TEST(EmbeddedEstimator, BiasIsSmall) {
  // The implemented Eq. 12 estimator carries a small bias (|.| < 3%).
  // (Empirically it is slightly *positive*; the paper's Eq. 16 predicts a
  // ~1% negative bias for the varying-omega inversion. Either way the
  // averaged estimate is well within the 1-2% band Fig. 3 advertises.)
  const std::uint64_t n = 10000;
  const double omega = 2.213;
  const double p = omega / static_cast<double>(n);
  anc::Pcg32 rng(3);
  anc::RunningStats ratios;
  for (int trial = 0; trial < 4000; ++trial) {
    EmbeddedEstimator est(30, omega, 30.0);
    est.Update(SimulateFrameCollisions(n, p, 30, rng), p, 0);
    ratios.Add(est.EstimatedTotal() / static_cast<double>(n));
  }
  const double bias = ratios.mean() - 1.0;
  EXPECT_LT(std::abs(bias), 0.03);
}

TEST(EmbeddedEstimator, SaturatedFramesRampBootstrap) {
  EmbeddedEstimator est(30, 1.414, 30.0);
  double prev = est.EstimatedTotal();
  for (int frame = 0; frame < 5; ++frame) {
    const double p = 1.414 / std::max(est.EstimatedTotal(), 1.0);
    est.Update(30, p, 0);  // every slot collided
    EXPECT_GT(est.EstimatedTotal(), prev);
    prev = est.EstimatedTotal();
  }
  EXPECT_EQ(est.InformativeFrames(), 0u);
  EXPECT_GT(est.EstimatedTotal(), 300.0);
}

TEST(EmbeddedEstimator, AckedTagsAddBack) {
  const double omega = 1.414;
  const std::uint64_t remaining = 500;
  const double p = omega / remaining;
  anc::Pcg32 rng(4);
  EmbeddedEstimator est(30, omega, 30.0);
  for (int frame = 0; frame < 300; ++frame) {
    est.Update(SimulateFrameCollisions(remaining, p, 30, rng), p, 9500);
  }
  EXPECT_NEAR(est.EstimatedTotal(), 10000.0, 300.0);
  EXPECT_NEAR(est.EstimatedBacklog(9500), 500.0, 300.0);
}

TEST(EmbeddedEstimator, BacklogFlooredAtOne) {
  EmbeddedEstimator est(30, 1.414, 100.0);
  EXPECT_GE(est.EstimatedBacklog(100000), 1.0);
}

TEST(EmbeddedEstimator, FloorRaisesAndDecays) {
  EmbeddedEstimator est(30, 1.414, 30.0);
  est.RaiseBacklogFloor(1000, 64.0);
  EXPECT_GE(est.EstimatedTotal(), 1064.0);
  // A fresh informative frame showing a small population caps the floor.
  est.Update(2, 0.05, 1000);
  EXPECT_LT(est.EstimatedTotal(), 1064.0);
}

TEST(EmbeddedEstimator, WindowedAverageAdapts) {
  // Feed 100 frames at N=10000, then 100 at N=2000 remaining: the
  // windowed estimator must track down; the all-time average lags.
  const double omega = 1.414;
  anc::Pcg32 rng(5);
  EmbeddedEstimator windowed(30, omega, 30.0, 16);
  EmbeddedEstimator alltime(30, omega, 30.0, 0);
  const double p1 = omega / 10000.0;
  for (int i = 0; i < 100; ++i) {
    const auto nc = SimulateFrameCollisions(10000, p1, 30, rng);
    windowed.Update(nc, p1, 0);
    alltime.Update(nc, p1, 0);
  }
  const double p2 = omega / 2000.0;
  for (int i = 0; i < 100; ++i) {
    const auto nc = SimulateFrameCollisions(2000, p2, 30, rng);
    windowed.Update(nc, p2, 8000);
    alltime.Update(nc, p2, 8000);
  }
  // Both see the same stream; the windowed backlog is closer to 2000.
  const double w_err = std::abs(windowed.EstimatedBacklog(8000) - 2000.0);
  const double a_err = std::abs(alltime.EstimatedBacklog(8000) - 2000.0);
  EXPECT_LE(w_err, a_err + 50.0);
}

TEST(EmbeddedEstimator, DegenerateProbabilitiesIgnored) {
  EmbeddedEstimator est(30, 1.414, 123.0);
  est.Update(10, 0.0, 0);
  est.Update(10, 1.0, 0);
  EXPECT_EQ(est.InformativeFrames(), 0u);
  EXPECT_DOUBLE_EQ(est.EstimatedTotal(), 123.0);
}

// The recent-frame count of a SaveState blob: after the floor (F64), the
// informative-frame varint and the running stats (varint + 4 x F64).
testing_blob::Field RecentCountField(const std::string& blob) {
  ser::Reader r{blob};
  r.F64();
  r.Varint();
  RunningStats stats;
  EXPECT_TRUE(ReadRunningStats(r, stats));
  return testing_blob::NextVarint(r);
}

TEST(EmbeddedEstimator, RestoreRejectsPatchedWindow) {
  for (std::size_t window : {std::size_t{0}, std::size_t{4}}) {
    EmbeddedEstimator est(30, 1.414, 30.0, window);
    for (int i = 0; i < 9; ++i) est.Update(3 + i % 4, 0.05, 0);
    std::string blob;
    est.SaveState(&blob);
    const testing_blob::Field count = RecentCountField(blob);
    ASSERT_EQ(testing_blob::ValueAt(blob, count), window);

    // Round trip.
    EmbeddedEstimator same(30, 1.414, 30.0, window);
    ser::Reader ok{blob};
    ASSERT_TRUE(same.RestoreState(ok));
    EXPECT_EQ(same.EstimatedTotal(), est.EstimatedTotal());

    // One frame more than the window holds, with its F64 appended before
    // the sum so that only the count is wrong.
    std::string longer = testing_blob::Patch(blob, count, window + 1);
    longer.insert(longer.size() - 8, 8, '\0');
    EmbeddedEstimator fresh(30, 1.414, 30.0, window);
    ser::Reader r{longer};
    EXPECT_FALSE(fresh.RestoreState(r)) << "window " << window;

    // A non-finite running sum.
    std::string inf_sum = blob;
    const double inf = HUGE_VAL;
    std::string bits;
    ser::PutF64(bits, inf);
    inf_sum.replace(inf_sum.size() - 8, 8, bits);
    EmbeddedEstimator fresh2(30, 1.414, 30.0, window);
    ser::Reader r2{inf_sum};
    EXPECT_FALSE(fresh2.RestoreState(r2)) << "window " << window;
  }
}

}  // namespace
}  // namespace anc::core
