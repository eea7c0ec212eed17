// Resolve requests the phy would reject are never built: the record
// tracker asks PhyInterface::RejectsResolve first and books the miss
// itself. That must be invisible. Every engine row of the checkpoint
// matrix (FCAT and SCAT over IdealPhy, the fault ledger's chaos profile,
// both deployment schedulers) and the waveform FCAT-2 smoke run once as
// built and once through a decorator that keeps the interface's default
// answer, so the tracker sends every request as it did before the query
// existed. Trace bytes, metrics, retry-abandoned records and the ledger's
// close counts must agree, and fewer requests must reach the phy.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checkpointable_factories.h"
#include "common/rng.h"
#include "core/factories.h"
#include "fault/fault_config.h"
#include "phy/ideal_phy.h"
#include "phy_test_util.h"
#include "service/service.h"
#include "sim/population.h"
#include "trace/binary.h"
#include "trace/sink.h"

namespace anc {
namespace {

core::PhyDecorator Watched(bool forward_query, phy_test::PhyLog* log) {
  return [forward_query, log](phy::PhyInterface& inner) {
    return std::make_unique<phy_test::WatchedPhy>(inner, forward_query, log);
  };
}

// Everything a run shows: encoded trace bytes, encoded metrics (or soak
// report), the records abandoned on a spent retry budget, and the fault
// ledger's close counts where the protocol exposes them.
struct Outcome {
  std::string trace;
  std::string metrics;
  std::vector<std::uint64_t> retry_abandoned;
  std::string ledger;
};

void Absorb(trace::MemorySink& sink, Outcome* out) {
  for (const trace::RunTrace& run : sink.runs()) {
    for (const trace::TraceEvent& e : run.events) {
      if (e.kind == trace::EventKind::kFault &&
          e.fault == trace::FaultKind::kAbandonRetry) {
        out->retry_abandoned.push_back(e.record);
      }
    }
  }
  out->trace += trace::EncodeTrace(sink.TakeFile());
}

// Two closed-world runs of `factory`, driven by hand so the protocol is
// still there to read its ledger when the run ends.
Outcome ClosedRuns(const sim::ProtocolFactory& factory, std::size_t n_tags) {
  constexpr std::uint64_t kSeed = 3;
  constexpr std::uint64_t kMaxSlotsPerTag = 600;
  Outcome out;
  for (std::uint64_t run = 0; run < 2; ++run) {
    Pcg32 pop_rng(kSeed + run, 1);
    const auto population = sim::MakePopulation(n_tags, pop_rng);
    const auto protocol = factory(population, Pcg32(kSeed + run, 2));
    trace::MemorySink sink;
    sink.BeginRun(trace::RunHeader{run, kSeed, n_tags, kMaxSlotsPerTag,
                                   std::string(protocol->name())});
    protocol->AttachTrace(trace::TraceContext{&sink, 0});
    const std::uint64_t cap = kMaxSlotsPerTag * n_tags;
    while (!protocol->Finished() && protocol->metrics().TotalSlots() < cap) {
      protocol->Step();
    }
    protocol->Shutdown();
    sink.EndRun();
    sim::PutRunMetrics(out.metrics, protocol->metrics());
    if (const auto* engine =
            dynamic_cast<const core::EngineProtocol<phy::IdealPhy>*>(
                protocol.get())) {
      if (const fault::FaultCounters* c = engine->fault_counters()) {
        fault::PutFaultCounters(out.ledger, *c);
      }
    }
    Absorb(sink, &out);
  }
  return out;
}

// One churning smoke soak of `factory`: long-lived records, arrivals and
// departures, inventory re-arms.
Outcome Soak(const sim::ProtocolFactory& factory) {
  service::ServiceConfig config;
  EXPECT_TRUE(service::LookupServiceProfile("smoke", &config));
  service::SoakOptions options;
  options.n_initial = 20;
  options.runs = 1;
  options.base_seed = 11;
  trace::MemorySink sink;
  const service::SloReport report =
      service::RunSoakSingle(factory, config, options, 0, &sink);
  Outcome out;
  service::PutSloReport(out.metrics, report);
  Absorb(sink, &out);
  return out;
}

void ExpectSame(const Outcome& got, const Outcome& want) {
  EXPECT_TRUE(got.trace == want.trace) << "trace bytes differ";
  EXPECT_TRUE(got.metrics == want.metrics) << "metrics differ";
  EXPECT_EQ(got.retry_abandoned, want.retry_abandoned);
  EXPECT_TRUE(got.ledger == want.ledger) << "ledger close counts differ";
}

TEST(HopelessRecords, EngineRowsUnchangedWhenEveryRequestIsSent) {
  phy_test::PhyLog sent_all;
  phy_test::PhyLog sent_useful;
  const auto plain = testing_rows::EngineCheckpointableFactories();
  const auto every = testing_rows::EngineCheckpointableFactories(
      Watched(/*forward_query=*/false, &sent_all));
  const auto counted = testing_rows::EngineCheckpointableFactories(
      Watched(/*forward_query=*/true, &sent_useful));
  ASSERT_EQ(plain.size(), every.size());
  bool saw_retry_abandon = false;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    SCOPED_TRACE(plain[i].label);
    const Outcome want = ClosedRuns(plain[i].factory, 150);
    sent_all = {};
    ExpectSame(ClosedRuns(every[i].factory, 150), want);
    sent_useful = {};
    ExpectSame(ClosedRuns(counted[i].factory, 150), want);
    EXPECT_GT(sent_useful.requests, 0u);
    EXPECT_LT(sent_useful.requests, sent_all.requests);

    const Outcome soak = Soak(plain[i].factory);
    sent_all = {};
    ExpectSame(Soak(every[i].factory), soak);
    sent_useful = {};
    ExpectSame(Soak(counted[i].factory), soak);
    EXPECT_LT(sent_useful.requests, sent_all.requests);

    if (std::string_view(plain[i].label) == "fcat2_chaos") {
      // The row that carries the ledger must exercise the retry budget.
      EXPECT_FALSE(want.ledger.empty());
      saw_retry_abandon = !want.retry_abandoned.empty() ||
                          !soak.retry_abandoned.empty();
    }
  }
  EXPECT_TRUE(saw_retry_abandon);
}

// The waveform FCAT-2 smoke (the golden's 40 tags and default signal
// options) at demod pool 0 and 2. SignalPhy rejects only closed records
// and above-cap mixtures, so fewer requests are saved.
TEST(HopelessRecords, SignalSmokeUnchangedWhenEveryRequestIsSent) {
  for (unsigned demod_pool : {0u, 2u}) {
    SCOPED_TRACE("demod_pool=" + std::to_string(demod_pool));
    core::FcatSignalOptions o;
    o.signal.demod_pool_threads = demod_pool;
    phy_test::PhyLog sent_all;
    phy_test::PhyLog sent_useful;
    const Outcome want = ClosedRuns(core::MakeFcatSignalFactory(o), 40);
    ExpectSame(
        ClosedRuns(core::MakeFcatSignalFactory(
                       o, Watched(/*forward_query=*/false, &sent_all)),
                   40),
        want);
    ExpectSame(
        ClosedRuns(core::MakeFcatSignalFactory(
                       o, Watched(/*forward_query=*/true, &sent_useful)),
                   40),
        want);
    EXPECT_GT(sent_useful.requests, 0u);
    EXPECT_LT(sent_useful.requests, sent_all.requests);
  }
}

// The phy-level contract behind the skip: a request IdealPhy says it
// rejects draws nothing from the RNG. Two twins see the same slots; one
// is sent every request, the other only those it does not reject, and
// their later observations must still agree draw for draw.
TEST(HopelessRecords, IdealPhyRejectedRequestDrawsNothing) {
  Pcg32 pop_rng(9);
  const auto pop = sim::MakePopulation(12, pop_rng);
  phy::IdealPhyConfig cfg;
  cfg.lambda = 2;
  cfg.resolution_success_prob = 0.5;
  cfg.singleton_corrupt_prob = 0.5;
  phy::IdealPhy all(pop, cfg, Pcg32(4));
  phy::IdealPhy some(pop, cfg, Pcg32(4));
  const std::vector<std::vector<std::uint32_t>> slots = {
      {0, 1}, {2, 3, 4}, {5}, {6, 7}, {8, 9, 10, 11}, {1, 2}};
  const std::uint32_t knowns[] = {0, 2, 3, 6, 8, 9, 10};
  int rejected = 0;
  for (std::uint64_t s = 0; s < slots.size(); ++s) {
    const auto a = phy_test::Observe(all, s, slots[s]);
    const auto b = phy_test::Observe(some, s, slots[s]);
    ASSERT_TRUE(a.singleton_id == b.singleton_id);
    ASSERT_TRUE(a.record == b.record);
    if (!a.record.valid()) continue;
    for (std::size_t n = 0; n <= 3; ++n) {
      const std::span<const std::uint32_t> known(knowns, n);
      const bool rejects = all.RejectsResolve(a.record, n);
      ASSERT_EQ(rejects, some.RejectsResolve(b.record, n));
      const auto got = phy_test::Resolve(all, a.record, known);
      if (rejects) {
        EXPECT_FALSE(got.has_value());
        ++rejected;
      } else {
        EXPECT_TRUE(phy_test::Resolve(some, b.record, known) == got);
      }
    }
  }
  EXPECT_GT(rejected, 0);
  for (std::uint64_t s = 0; s < 16; ++s) {
    const std::uint32_t one[] = {static_cast<std::uint32_t>(s % 12)};
    EXPECT_TRUE(phy_test::Observe(all, 100 + s, one).singleton_id ==
                phy_test::Observe(some, 100 + s, one).singleton_id);
  }
}

}  // namespace
}  // namespace anc
