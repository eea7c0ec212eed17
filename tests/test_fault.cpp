// Fault-injection subsystem (src/fault): Gilbert-Elliott channel
// behaviour, bounded-store eviction policies, retry/TTL budgets, reader
// crash/recovery, deployment reader death, and trace determinism of
// faulted runs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/factories.h"
#include "deploy/deployment.h"
#include "fault/gilbert_elliott.h"
#include "fault/injector.h"
#include "fault/record_ledger.h"
#include "service/replay.h"
#include "sim/population.h"
#include "sim/runner.h"
#include "trace/binary.h"
#include "trace/recorder.h"

namespace anc {
namespace {

// Builds an FCAT instance the way RunSingle would for run index `seed`,
// so tests can poke at engine internals after driving it by hand.
struct DrivenFcat {
  std::vector<TagId> population;
  std::unique_ptr<core::EngineProtocol<phy::IdealPhy>> protocol;

  DrivenFcat(std::size_t n_tags, std::uint64_t seed,
             const core::FcatOptions& options) {
    anc::Pcg32 master(seed, 0x9E3779B97F4A7C15ULL + seed);
    anc::Pcg32 pop_rng = master.Split();
    anc::Pcg32 proto_rng = master.Split();
    population = sim::MakePopulation(n_tags, pop_rng);
    protocol = core::MakeFcat(population, proto_rng, options);
  }

  // Returns false if the safety cap tripped.
  bool Drive(std::uint64_t max_slots = 200000) {
    while (!protocol->Finished()) {
      if (protocol->metrics().TotalSlots() >= max_slots) return false;
      protocol->Step();
    }
    return true;
  }
};

TEST(GilbertElliott, DisabledChannelNeverTouchesRng) {
  fault::GilbertElliottChannel channel{fault::GilbertElliottParams{}};
  ASSERT_FALSE(channel.enabled());
  anc::Pcg32 a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(channel.Sample(a));
  EXPECT_EQ(a(), b());  // identical stream position
}

TEST(GilbertElliott, FlatSpecialCaseMatchesBernoulliRate) {
  fault::GilbertElliottParams p;
  p.error_good = 0.3;  // p_good_to_bad = 0: never leaves the good state
  fault::GilbertElliottChannel channel{p};
  anc::Pcg32 rng(1, 2);
  int errors = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) errors += channel.Sample(rng) ? 1 : 0;
  EXPECT_FALSE(channel.in_bad_state());
  EXPECT_NEAR(static_cast<double>(errors) / n, 0.3, 0.02);
}

TEST(GilbertElliott, BurstParametersClusterErrors) {
  // Same marginal error rate two ways: iid 10%, versus bursts (bad state
  // dwells ~10 samples at 50% error, entered 1.1% of the time). The burst
  // chain must produce longer error runs.
  fault::GilbertElliottParams flat;
  flat.error_good = 0.1;
  fault::GilbertElliottParams burst;
  burst.p_good_to_bad = 0.011;
  burst.p_bad_to_good = 0.1;
  burst.error_bad = 0.5;
  const auto longest_error_run = [](const fault::GilbertElliottParams& p) {
    fault::GilbertElliottChannel channel{p};
    anc::Pcg32 rng(3, 5);
    int longest = 0, current = 0;
    for (int i = 0; i < 50000; ++i) {
      if (channel.Sample(rng)) {
        longest = std::max(longest, ++current);
      } else {
        current = 0;
      }
    }
    return longest;
  };
  EXPECT_GT(longest_error_run(burst), longest_error_run(flat));
}

TEST(FaultProfiles, KnownNamesParseUnknownRejected) {
  for (const char* name : {"off", "bounded8", "burst", "crash", "chaos"}) {
    const auto profile = fault::FaultProfile(name);
    ASSERT_TRUE(profile.has_value()) << name;
    EXPECT_NE(fault::FaultProfileList().find(name), std::string::npos);
  }
  EXPECT_EQ(fault::FaultProfile("off")->Any(), false);
  EXPECT_TRUE(fault::FaultProfile("chaos")->Any());
  EXPECT_FALSE(fault::FaultProfile("no-such-profile").has_value());
}

TEST(RecordLedger, EvictionPolicyVictims) {
  // Three records: 0 opened first (k=2), 1 opened next (k=4), 2 newest
  // (k=3); record 0 progressed most recently.
  const auto make = [](fault::EvictionPolicy policy,
                       fault::FaultCounters* counters, anc::Pcg32* rng) {
    fault::RecordStorePolicy store;
    store.capacity = 2;
    store.eviction = policy;
    return fault::RecordLedger(store, counters, rng);
  };
  const auto open_three = [](fault::RecordLedger& ledger) {
    ledger.Tick(10, 1);
    EXPECT_EQ(ledger.Open(phy::RecordHandle{0}, 2), phy::kInvalidRecord);
    ledger.Tick(11, 1);
    EXPECT_EQ(ledger.Open(phy::RecordHandle{1}, 4), phy::kInvalidRecord);
    ledger.Tick(12, 1);
    ledger.OnProgress(phy::RecordHandle{0});
    return ledger.Open(phy::RecordHandle{2}, 3);  // over capacity: returns the victim
  };
  fault::FaultCounters counters;
  anc::Pcg32 rng(9, 9);
  {
    auto ledger = make(fault::EvictionPolicy::kOldestFirst, &counters, &rng);
    EXPECT_EQ(open_three(ledger), phy::RecordHandle{0});
  }
  {
    auto ledger = make(fault::EvictionPolicy::kLruProgress, &counters, &rng);
    EXPECT_EQ(open_three(ledger), phy::RecordHandle{1});  // 0 progressed at slot 12; 1 stale
  }
  {
    auto ledger = make(fault::EvictionPolicy::kLargestK, &counters, &rng);
    EXPECT_EQ(open_three(ledger), phy::RecordHandle{1});  // k = 4 is the largest mixture
  }
  {
    auto ledger = make(fault::EvictionPolicy::kRandom, &counters, &rng);
    const phy::RecordHandle victim = open_three(ledger);
    EXPECT_LT(victim.index(), 3u);  // some open record, deterministic per seed
  }
}

// A checkpoint's open list must name exactly the open records, each once:
// the victim pick and the TTL sweep index the per-record metadata by it.
TEST(RecordLedger, RestoreRejectsBadOpenList) {
  fault::RecordStorePolicy store;
  store.capacity = 8;
  store.eviction = fault::EvictionPolicy::kLargestK;
  fault::FaultCounters counters;
  anc::Pcg32 rng(9, 9);
  fault::RecordLedger ledger(store, &counters, &rng);
  for (std::uint32_t i = 0; i < 4; ++i) {
    ledger.Tick(10 + i, 1);
    ASSERT_EQ(ledger.Open(phy::RecordHandle{i}, 2 + i), phy::kInvalidRecord);
  }
  ledger.Close(phy::RecordHandle{1},
               fault::RecordLedger::CloseReason::kResolved);
  std::string blob;
  ledger.SaveState(&blob);

  // Locate the meta count and the open list: slot, frame, metas (five
  // varints and two bools each), then the list.
  ser::Reader walk{blob};
  walk.Varint();
  walk.Varint();
  const std::size_t metas_at = walk.pos;
  const std::uint64_t metas = walk.Varint();
  ASSERT_EQ(metas, 4u);
  for (std::uint64_t i = 0; i < 7 * metas; ++i) walk.Varint();
  const std::size_t list_at = walk.pos;
  ASSERT_EQ(walk.Varint(), 3u);  // records 0, 2, 3
  const std::size_t first_at = walk.pos;
  ASSERT_EQ(walk.Varint(), 0u);
  ASSERT_TRUE(walk.ok);

  const auto restores = [&](std::string bytes) {
    fault::RecordLedger fresh(store, &counters, &rng);
    ser::Reader r{bytes};
    return fresh.RestoreState(r) && r.AtEnd();
  };
  const auto patch = [&](std::size_t at, char value) {
    std::string bytes = blob;
    bytes[at] = value;  // every patched varint here is one byte
    return bytes;
  };
  ASSERT_TRUE(restores(blob));
  EXPECT_FALSE(restores(patch(first_at, 4)));   // past the metadata
  EXPECT_FALSE(restores(patch(first_at, 1)));   // a closed record
  EXPECT_FALSE(restores(patch(first_at, 2)));   // listed twice
  EXPECT_FALSE(restores(patch(list_at, 2)));    // shorter than the open set
  EXPECT_FALSE(restores(patch(metas_at, 0x7F)));  // more metas than bytes
}

TEST(FaultEngine, BoundedStoreCompletesAndReconciles) {
  core::FcatOptions o;
  o.fault.store.capacity = 8;
  o.fault.store.max_resolve_failures = 4;
  o.fault.store.max_open_frames = 32;
  DrivenFcat run(800, 21, o);
  ASSERT_TRUE(run.Drive());
  const sim::RunMetrics& m = run.protocol->metrics();
  EXPECT_EQ(m.tags_read, 800u);
  EXPECT_GT(m.records_evicted, 0u);
  EXPECT_EQ(run.protocol->OpenPhyRecords(), 0u);
  const fault::FaultCounters* c = run.protocol->engine().fault_counters();
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->Reconciles());
  EXPECT_LE(c->max_open_records, 8u);
  EXPECT_EQ(c->records_evicted, m.records_evicted);
}

TEST(FaultEngine, RetryBudgetAbandonsUnresolvableRecords) {
  core::FcatOptions o;
  // Resolutions mostly fail, so open records rack up TryResolve failures
  // and trip the retry budget instead of lingering forever.
  o.resolution_success_prob = 0.05;
  o.fault.store.max_resolve_failures = 2;
  DrivenFcat run(400, 5, o);
  ASSERT_TRUE(run.Drive());
  const sim::RunMetrics& m = run.protocol->metrics();
  EXPECT_EQ(m.tags_read, 400u);
  EXPECT_GT(m.records_abandoned, 0u);
  const fault::FaultCounters* c = run.protocol->engine().fault_counters();
  ASSERT_NE(c, nullptr);
  EXPECT_GT(c->records_abandoned_retry, 0u);
  EXPECT_TRUE(c->Reconciles());
  EXPECT_EQ(run.protocol->OpenPhyRecords(), 0u);
}

TEST(FaultEngine, TtlBudgetExpiresStaleRecords) {
  core::FcatOptions o;
  o.resolution_success_prob = 0.3;  // leave records open across frames
  o.fault.store.max_open_frames = 3;
  DrivenFcat run(600, 13, o);
  ASSERT_TRUE(run.Drive());
  const fault::FaultCounters* c = run.protocol->engine().fault_counters();
  ASSERT_NE(c, nullptr);
  EXPECT_GT(c->records_abandoned_ttl, 0u);
  EXPECT_TRUE(c->Reconciles());
  EXPECT_EQ(run.protocol->metrics().tags_read, 600u);
  EXPECT_EQ(run.protocol->OpenPhyRecords(), 0u);
}

TEST(FaultEngine, CrashRestartsAndStillReadsEveryTag) {
  core::FcatOptions o;
  o.fault.crash.crash_at_slot = 150;
  o.fault.crash.restart_delay_slots = 8;
  DrivenFcat faulted(500, 17, o);
  ASSERT_TRUE(faulted.Drive());
  const sim::RunMetrics& m = faulted.protocol->metrics();
  EXPECT_EQ(m.reader_crashes, 1u);
  EXPECT_EQ(m.tags_read, 500u);
  EXPECT_EQ(faulted.protocol->OpenPhyRecords(), 0u);
  const fault::FaultCounters* c = faulted.protocol->engine().fault_counters();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->reader_crashes, 1u);
  EXPECT_TRUE(c->Reconciles());

  // The outage costs time versus the identical unfaulted run.
  DrivenFcat clean(500, 17, core::FcatOptions{});
  ASSERT_TRUE(clean.Drive());
  EXPECT_GT(m.elapsed_seconds, clean.protocol->metrics().elapsed_seconds);
}

TEST(FaultEngine, AdvertBurstChannelStillTerminates) {
  core::FcatOptions o;
  o.fault.advert_corruption.p_good_to_bad = 0.1;
  o.fault.advert_corruption.p_bad_to_good = 0.2;
  o.fault.advert_corruption.error_bad = 0.6;
  DrivenFcat run(500, 19, o);
  ASSERT_TRUE(run.Drive());
  EXPECT_EQ(run.protocol->metrics().tags_read, 500u);
  const fault::FaultCounters* c = run.protocol->engine().fault_counters();
  ASSERT_NE(c, nullptr);
  EXPECT_GT(c->adverts_corrupted, 0u);
}

TEST(FaultEngine, GeAckChannelSupersedesFlatLoss) {
  core::FcatOptions o;
  o.fault.ack_loss.error_good = 0.3;
  DrivenFcat run(600, 23, o);
  ASSERT_TRUE(run.Drive());
  const sim::RunMetrics& m = run.protocol->metrics();
  EXPECT_EQ(m.tags_read, 600u);
  EXPECT_GT(m.duplicate_receptions, 0u);
  const fault::FaultCounters* c = run.protocol->engine().fault_counters();
  ASSERT_NE(c, nullptr);
  EXPECT_GT(c->acks_lost, 0u);
}

TEST(FaultEngine, FaultedNameCarriesProfileLabel) {
  core::FcatOptions o;
  o.fault = *fault::FaultProfile("chaos");
  DrivenFcat run(50, 1, o);
  EXPECT_EQ(run.protocol->name(), "FCAT-2@chaos");
  DrivenFcat clean(50, 1, core::FcatOptions{});
  EXPECT_EQ(clean.protocol->name(), "FCAT-2");
}

TEST(FaultEngine, ZeroCostOffLeavesUnfaultedRunsUntouched) {
  // A fault config that exists but is all-off must not fork RNG streams:
  // the run must be bit-identical to one with no fault config at all.
  core::FcatOptions off;
  core::FcatOptions none;
  off.fault = *fault::FaultProfile("off");
  const auto a = sim::RunOnce(core::MakeFcatFactory(off), 400, 3);
  const auto b = sim::RunOnce(core::MakeFcatFactory(none), 400, 3);
  EXPECT_EQ(a.tags_read, b.tags_read);
  EXPECT_EQ(a.TotalSlots(), b.TotalSlots());
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.tag_transmissions, b.tag_transmissions);
}

TEST(FaultTrace, ChaoticRunTracesIdenticallyAtAnyThreadCount) {
  core::FcatOptions o;
  o.fault = *fault::FaultProfile("chaos");
  const auto factory = core::MakeFcatFactory(o);
  const auto record = [&](std::size_t threads) {
    sim::ExperimentOptions eo;
    eo.n_tags = 300;
    eo.runs = 4;
    eo.base_seed = 1;
    eo.n_threads = threads;
    trace::MultiRunRecorder recorder(eo.runs);
    eo.trace_factory = recorder.Factory();
    sim::RunExperiment(factory, eo);
    return trace::EncodeTrace(recorder.File());
  };
  const auto one = record(1);
  EXPECT_EQ(one, record(4));
  ASSERT_FALSE(one.empty());
}

TEST(FaultTrace, FaultedRunEmitsFaultEventsAndReplays) {
  core::FcatOptions o;
  o.fault = *fault::FaultProfile("chaos");
  const auto factory = core::MakeFcatFactory(o);
  sim::ExperimentOptions eo;
  eo.n_tags = 300;
  eo.runs = 2;
  eo.base_seed = 1;
  trace::MultiRunRecorder recorder(eo.runs);
  eo.trace_factory = recorder.Factory();
  sim::RunExperiment(factory, eo);
  const trace::TraceFile file = recorder.File();
  ASSERT_EQ(file.runs.size(), 2u);
  EXPECT_EQ(file.runs[0].header.protocol, "FCAT-2@chaos");
  std::size_t fault_events = 0;
  for (const trace::TraceEvent& e : file.runs[0].events) {
    fault_events += e.kind == trace::EventKind::kFault ? 1 : 0;
  }
  EXPECT_GT(fault_events, 0u);
  const service::ReplayReport report = service::VerifyReplay(file, factory);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(FaultDeployment, DeadReaderIsRescheduledAroundAndReleasesRecords) {
  deploy::DeploymentConfig config;  // 2x2 grid over the default room
  config.share_records = true;
  config.overlap = 0.6;  // survivors must cover the dead reader's zone
  config.reader_death.enabled = true;
  config.reader_death.reader = 0;
  config.reader_death.at_global_slot = 40;

  anc::Pcg32 master(31, 0x9E3779B97F4A7C15ULL + 31);
  anc::Pcg32 pop_rng = master.Split();
  anc::Pcg32 deploy_rng = master.Split();
  const auto tags = sim::MakePopulation(300, pop_rng);
  core::FcatOptions fcat;
  fcat.timing = phy::TimingModel::ICode();
  deploy::DeploymentProtocol deployment(tags, deploy_rng, config,
                                        core::MakeFcatFactory(fcat));
  std::uint64_t guard = 0;
  while (!deployment.Finished() && ++guard < 1000000) deployment.Step();
  ASSERT_TRUE(deployment.Finished());

  const deploy::DeploymentResult result = deployment.Result();
  EXPECT_EQ(result.dead_readers, 1u);
  ASSERT_EQ(result.per_reader.size(), 4u);
  EXPECT_TRUE(result.per_reader[0].dead);
  // The dead reader's records were released by Shutdown(); survivors
  // finished normally, so no reader holds a stored signal.
  EXPECT_EQ(deployment.OpenPhyRecords(), 0u);
  // Survivors keep reading: the merged inventory far exceeds what one
  // dead-at-slot-40 reader could have contributed.
  EXPECT_GT(result.unique_ids, 200u);
}

TEST(FaultDeployment, UnfaultedDeploymentUnchangedByFaultPlumbing) {
  // reader_death disabled must not consume RNG (the extra split is
  // conditional), so results match across the fault-plumbing refactor's
  // on/off boundary: two identical configs give identical runs.
  deploy::DeploymentConfig config;
  config.share_records = true;
  const auto factory =
      deploy::MakeDeploymentFactory(config, core::MakeFcatFactory({}));
  const auto a = sim::RunOnce(factory, 250, 5);
  const auto b = sim::RunOnce(factory, 250, 5);
  EXPECT_EQ(a.tags_read, b.tags_read);
  EXPECT_EQ(a.TotalSlots(), b.TotalSlots());
  EXPECT_EQ(a.reader_crashes, 0u);
}

}  // namespace
}  // namespace anc
