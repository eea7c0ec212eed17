#include "phy/signal_phy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/factories.h"
#include "phy_test_util.h"
#include "sim/population.h"

namespace anc::phy {
namespace {

std::vector<TagId> Pop(std::size_t n, std::uint64_t seed = 1) {
  anc::Pcg32 rng(seed);
  return anc::sim::MakePopulation(n, rng);
}

SignalPhyConfig GoodChannel() {
  SignalPhyConfig cfg;
  cfg.snr_db = 25.0;
  return cfg;
}

TEST(SignalPhy, SingletonDecodes) {
  const auto pop = Pop(8);
  SignalPhy phy(pop, GoodChannel(), anc::Pcg32(1));
  const std::uint32_t one[] = {2};
  const auto obs = phy_test::Observe(phy, 0, one);
  EXPECT_EQ(obs.type, SlotType::kSingleton);
  ASSERT_TRUE(obs.singleton_id.has_value());
  EXPECT_EQ(*obs.singleton_id, pop[2]);
  EXPECT_FALSE(phy.ReferenceFor(2).empty());
}

TEST(SignalPhy, CollisionNotDecodable) {
  const auto pop = Pop(8);
  SignalPhy phy(pop, GoodChannel(), anc::Pcg32(1));
  const std::uint32_t two[] = {1, 3};
  const auto obs = phy_test::Observe(phy, 0, two);
  EXPECT_EQ(obs.type, SlotType::kCollision);
  EXPECT_FALSE(obs.singleton_id.has_value());
  ASSERT_NE(obs.record, kInvalidRecord);
  EXPECT_EQ(phy.OpenRecords(), 1u);
}

TEST(SignalPhy, ResolveAfterSingletonReference) {
  // The Fig. 1 mechanic end-to-end on real waveforms: collision of {1,3},
  // then a singleton of 1; the stored mixed signal yields tag 3.
  const auto pop = Pop(8);
  SignalPhy phy(pop, GoodChannel(), anc::Pcg32(2));
  const std::uint32_t two[] = {1, 3};
  const auto collision = phy_test::Observe(phy, 0, two);
  const std::uint32_t one[] = {1};
  const auto singleton = phy_test::Observe(phy, 1, one);
  ASSERT_TRUE(singleton.singleton_id.has_value());

  const std::uint32_t known[] = {1};
  const auto resolved = phy_test::Resolve(phy, collision.record, known);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, pop[3]);
  // The residual is retained as tag 3's reference for further cascades.
  EXPECT_FALSE(phy.ReferenceFor(3).empty());
}

TEST(SignalPhy, ResolveWithoutReferenceFails) {
  const auto pop = Pop(8);
  SignalPhy phy(pop, GoodChannel(), anc::Pcg32(3));
  const std::uint32_t two[] = {1, 3};
  const auto collision = phy_test::Observe(phy, 0, two);
  const std::uint32_t known[] = {1};  // ID known but waveform never seen
  EXPECT_FALSE(phy_test::Resolve(phy, collision.record, known).has_value());
}

TEST(SignalPhy, PrematureResolveIsRejectedOrCaptures) {
  // Two constituents remain after subtracting one of three: either the
  // CRC rejects the residual, or the stronger remaining constituent is
  // captured — but a never-transmitted ID must not appear.
  const auto pop = Pop(8);
  SignalPhy phy(pop, GoodChannel(), anc::Pcg32(4));
  const std::uint32_t three[] = {1, 3, 5};
  const auto collision = phy_test::Observe(phy, 0, three);
  const std::uint32_t one[] = {1};
  phy_test::Observe(phy, 1, one);
  const std::uint32_t known[] = {1};
  // Capture may recover one, so the phy may not rule the request out
  // before trying it.
  EXPECT_FALSE(phy.RejectsResolve(collision.record, 1));
  const auto resolved = phy_test::Resolve(phy, collision.record, known);
  if (resolved.has_value()) {
    EXPECT_TRUE(*resolved == pop[3] || *resolved == pop[5]);
  }
}

TEST(SignalPhy, CascadeAcrossTwoRecords) {
  // Records {1,3} and {3,5}: a singleton of 1 resolves 3 from the first
  // record; 3's residual reference then resolves 5 from the second.
  const auto pop = Pop(8);
  SignalPhy phy(pop, GoodChannel(), anc::Pcg32(5));
  const std::uint32_t r1[] = {1, 3};
  const std::uint32_t r2[] = {3, 5};
  const auto rec1 = phy_test::Observe(phy, 0, r1);
  const auto rec2 = phy_test::Observe(phy, 1, r2);
  const std::uint32_t one[] = {1};
  phy_test::Observe(phy, 2, one);

  const std::uint32_t known1[] = {1};
  const auto id3 = phy_test::Resolve(phy, rec1.record, known1);
  ASSERT_TRUE(id3.has_value());
  EXPECT_EQ(*id3, pop[3]);

  const std::uint32_t known2[] = {3};
  const auto id5 = phy_test::Resolve(phy, rec2.record, known2);
  ASSERT_TRUE(id5.has_value());
  EXPECT_EQ(*id5, pop[5]);
}

TEST(SignalPhy, MixtureCapEnforced) {
  auto cfg = GoodChannel();
  cfg.max_mixture = 2;
  const auto pop = Pop(8);
  SignalPhy phy(pop, cfg, anc::Pcg32(6));
  const std::uint32_t three[] = {1, 3, 5};
  const auto rec = phy_test::Observe(phy, 0, three);
  const std::uint32_t ones[] = {1};
  phy_test::Observe(phy, 1, ones);
  const std::uint32_t threes[] = {3};
  phy_test::Observe(phy, 2, threes);
  const std::uint32_t known[] = {1, 3};
  // Signal-wise resolvable, but the modeled decoder tops out at lambda=2:
  // the phy says so up front and keeps no samples for the record.
  EXPECT_TRUE(phy.RejectsResolve(rec.record, 2));
  EXPECT_EQ(phy.OpenRecords(), 1u);
  EXPECT_EQ(phy.SlabsInUse(), 0u);
  EXPECT_FALSE(phy_test::Resolve(phy, rec.record, known).has_value());
  phy.ReleaseRecord(rec.record);
  EXPECT_EQ(phy.OpenRecords(), 0u);
  EXPECT_EQ(phy.SlabsInUse(), 0u);
}

TEST(SignalPhy, SlabsOnlyForResolvableMixtures) {
  // A lambda = 2 waveform smoke run: after every slot, slabs are held by
  // exactly the open records of order <= max_mixture.
  phy_test::PhyLog log;
  core::FcatSignalOptions o;
  o.lambda = 2;
  o.signal.snr_db = 25.0;
  const auto population = Pop(60, 11);
  const auto protocol = core::MakeFcatSignal(
      population, anc::Pcg32(7), o, [&log](PhyInterface& inner) {
        return std::make_unique<phy_test::WatchedPhy>(inner, true, &log);
      });
  bool saw_above_cap = false;
  std::size_t max_slabs = 0;
  for (int step = 0; step < 600 * 60 && !protocol->Finished(); ++step) {
    protocol->Step();
    std::size_t resolvable = 0;
    for (const std::uint32_t order : log.open_orders) {
      saw_above_cap = saw_above_cap || order > 2;
      if (order > 0 && order <= 2) ++resolvable;
    }
    ASSERT_EQ(protocol->phy().SlabsInUse(), resolvable) << "step " << step;
    max_slabs = std::max(max_slabs, resolvable);
  }
  ASSERT_TRUE(protocol->Finished());
  EXPECT_TRUE(saw_above_cap);
  EXPECT_GT(max_slabs, 0u);
  EXPECT_EQ(protocol->phy().SlabsInUse(), 0u);

  // Without a cap the signal decides, so every record keeps its samples.
  SignalPhyConfig uncapped = GoodChannel();
  uncapped.max_mixture = 0;
  const auto pop = Pop(8);
  SignalPhy phy(pop, uncapped, anc::Pcg32(6));
  const std::uint32_t two[] = {0, 1};
  const std::uint32_t three[] = {2, 3, 4};
  const std::uint32_t four[] = {4, 5, 6, 7};
  phy_test::Observe(phy, 0, two);
  const auto rec3 = phy_test::Observe(phy, 1, three);
  phy_test::Observe(phy, 2, four);
  EXPECT_EQ(phy.OpenRecords(), 3u);
  EXPECT_EQ(phy.SlabsInUse(), 3u);
  EXPECT_FALSE(phy.RejectsResolve(rec3.record, 0));
  phy.ReleaseRecord(rec3.record);
  EXPECT_EQ(phy.SlabsInUse(), 2u);
  EXPECT_TRUE(phy.RejectsResolve(rec3.record, 2));
}

TEST(SignalPhy, LowSnrSingletonMayCorrupt) {
  auto cfg = GoodChannel();
  cfg.snr_db = -12.0;
  const auto pop = Pop(8);
  SignalPhy phy(pop, cfg, anc::Pcg32(7));
  int corrupted = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const std::uint32_t one[] = {i};
    const auto obs = phy_test::Observe(phy, i, one);
    if (!obs.singleton_id.has_value()) ++corrupted;
  }
  EXPECT_GT(corrupted, 0);  // deep in the noise, CRC must start failing
}

TEST(SignalPhy, ReleaseFreesRecord) {
  const auto pop = Pop(8);
  SignalPhy phy(pop, GoodChannel(), anc::Pcg32(8));
  const std::uint32_t two[] = {1, 3};
  const auto rec = phy_test::Observe(phy, 0, two);
  phy.ReleaseRecord(rec.record);
  EXPECT_EQ(phy.OpenRecords(), 0u);
}

}  // namespace
}  // namespace anc::phy
