// Adversarial property tests for the bounded record store: a hot
// workload (lambda = 4 resolution depth, tiny frames, 2000 tags) that
// keeps the store under constant capacity pressure, checked under every
// eviction policy. The invariants:
//
//   1. safety  — per-slot store occupancy never exceeds the capacity;
//   2. conservation — every record that ever opened leaves through
//      exactly one gate (resolved / evicted / abandoned / crash-dropped /
//      released-at-end);
//   3. liveness — faults shed throughput, never tags: the protocol still
//      terminates having read the full population, holding no signals.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/factories.h"
#include "fault/fault_config.h"
#include "sim/population.h"
#include "sim/runner.h"

namespace anc {
namespace {

struct PropertyRun {
  sim::RunMetrics metrics;
  fault::FaultCounters counters;
  std::size_t open_at_end = 0;
  bool finished = false;
};

PropertyRun RunAdversarial(fault::EvictionPolicy policy, std::uint64_t seed) {
  core::FcatOptions o;
  o.lambda = 4;      // deep cascades: records linger while mixtures peel
  o.frame_size = 4;  // tiny frames force constant re-advertisement
  o.fault.store.capacity = 16;
  o.fault.store.eviction = policy;
  o.fault.store.max_resolve_failures = 8;
  o.fault.store.max_open_frames = 128;

  anc::Pcg32 master = sim::RunRng(0, seed);
  anc::Pcg32 pop_rng = master.Split();
  anc::Pcg32 proto_rng = master.Split();
  const std::vector<TagId> population = sim::MakePopulation(2000, pop_rng);
  const auto protocol = core::MakeFcat(population, proto_rng, o);

  PropertyRun result;
  const std::uint64_t cap = 100 * population.size() + 1000;
  while (!protocol->Finished() && protocol->metrics().TotalSlots() < cap) {
    protocol->Step();
  }
  result.finished = protocol->Finished();
  result.metrics = protocol->metrics();
  result.open_at_end = protocol->OpenPhyRecords();
  const fault::FaultCounters* c = protocol->fault_counters();
  if (c != nullptr) result.counters = *c;
  return result;
}

class FaultProperties
    : public ::testing::TestWithParam<fault::EvictionPolicy> {};

TEST_P(FaultProperties, AdversarialWorkloadHoldsAllInvariants) {
  const PropertyRun run = RunAdversarial(GetParam(), 11);

  ASSERT_TRUE(run.finished) << "protocol hit the livelock cap";

  // Safety: the store honoured its capacity every slot.
  EXPECT_LE(run.counters.max_open_records, 16u);
  // The workload actually pressured the store (the test would be vacuous
  // if the cascade never filled 16 records).
  EXPECT_EQ(run.counters.max_open_records, 16u);
  EXPECT_GT(run.counters.records_evicted, 0u);

  // Conservation: opened == resolved + evicted + abandoned + dropped +
  // released-at-end, and the metrics mirror agrees with the ledger.
  EXPECT_TRUE(run.counters.Reconciles())
      << "opened=" << run.counters.records_opened
      << " resolved=" << run.counters.records_resolved
      << " evicted=" << run.counters.records_evicted
      << " abandoned=" << run.counters.RecordsAbandoned()
      << " dropped=" << run.counters.records_dropped_on_crash
      << " released=" << run.counters.records_released_at_end;
  EXPECT_EQ(run.metrics.records_evicted, run.counters.records_evicted);
  EXPECT_EQ(run.metrics.records_abandoned, run.counters.RecordsAbandoned());

  // Liveness: every tag read, no stored signal survives the run.
  EXPECT_EQ(run.metrics.tags_read, 2000u);
  EXPECT_EQ(run.open_at_end, 0u);
  EXPECT_EQ(run.metrics.unresolved_records,
            run.counters.records_released_at_end);
}

INSTANTIATE_TEST_SUITE_P(
    AllEvictionPolicies, FaultProperties,
    ::testing::Values(fault::EvictionPolicy::kOldestFirst,
                      fault::EvictionPolicy::kLruProgress,
                      fault::EvictionPolicy::kLargestK,
                      fault::EvictionPolicy::kRandom),
    [](const ::testing::TestParamInfo<fault::EvictionPolicy>& info) {
      switch (info.param) {
        case fault::EvictionPolicy::kOldestFirst: return "Oldest";
        case fault::EvictionPolicy::kLruProgress: return "Lru";
        case fault::EvictionPolicy::kLargestK: return "LargestK";
        case fault::EvictionPolicy::kRandom: return "Random";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace anc
