// Service-mode tests: churn schedules, the conservation ledger, trace
// determinism across thread counts, and replay identity for soak runs.
#include "service/service.h"

#include <gtest/gtest.h>

#include <set>

#include "core/factories.h"
#include "deploy/deployment.h"
#include "fault/injector.h"
#include "read_back.h"
#include "service/replay.h"
#include "sim/population.h"
#include "trace/binary.h"
#include "trace/timeseries.h"

namespace anc::service {
namespace {

ServiceConfig Profile(const char* label) {
  ServiceConfig config;
  EXPECT_TRUE(LookupServiceProfile(label, &config));
  return config;
}

// The ledger every service run must balance: each arrival is detected,
// missed on departure, or still pending at the end — no fourth bucket.
void ExpectConservation(const SloReport& r) {
  EXPECT_TRUE(r.ConservationOk())
      << "arrived=" << r.arrived << " detected=" << r.detected
      << " missed=" << r.missed_departed
      << " undetected_at_end=" << r.undetected_at_end;
  EXPECT_EQ(r.departed,
            r.missed_departed + (r.departed - r.missed_departed));
  EXPECT_EQ(r.open_phy_records_end, 0u);
  EXPECT_TRUE(r.churn_supported);
}

TEST(ChurnSchedule, DeterministicAndWellFormed) {
  ChurnConfig config;
  config.kind = ChurnKind::kPoisson;
  config.arrival_rate = 0.05;
  config.mean_dwell_slots = 300;
  config.min_dwell_slots = 50;
  const std::size_t n_initial = 20;
  const std::uint64_t stop = 2000;
  const std::size_t universe = UniverseSizeFor(config, n_initial, stop);
  ASSERT_GT(universe, n_initial);

  anc::Pcg32 rng_a(42, 7), rng_b(42, 7);
  const ChurnSchedule a =
      BuildChurnSchedule(config, universe, n_initial, stop, rng_a);
  const ChurnSchedule b =
      BuildChurnSchedule(config, universe, n_initial, stop, rng_b);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.suppressed_arrivals, b.suppressed_arrivals);
  ASSERT_FALSE(a.events.empty());

  std::set<std::uint32_t> arrived_tags;
  std::uint64_t prev_slot = 0;
  for (const ChurnEvent& e : a.events) {
    EXPECT_GE(e.slot, prev_slot);  // sorted
    prev_slot = e.slot;
    EXPECT_LT(e.slot, stop);  // nothing scheduled past the churn window
    EXPECT_LT(e.tag, universe);
    if (e.arrive) {
      EXPECT_GE(e.tag, n_initial);  // arrivals consume fresh indices only
      EXPECT_TRUE(arrived_tags.insert(e.tag).second);  // never re-arrives
    }
  }
}

TEST(ChurnSchedule, SuppressesWhenUniverseExhausted) {
  ChurnConfig config;
  config.kind = ChurnKind::kBatch;
  config.batch_size = 10;
  config.batch_interval = 100;
  config.mean_dwell_slots = 50;
  config.min_dwell_slots = 10;
  anc::Pcg32 rng(1, 1);
  // Universe only fits one of the nine scheduled batches.
  const ChurnSchedule s = BuildChurnSchedule(config, /*universe_size=*/15,
                                             /*n_initial=*/5, /*stop=*/1000,
                                             rng);
  EXPECT_EQ(s.suppressed_arrivals, 80u);
}

TEST(ChurnSchedule, ConveyorIsPeriodicWithFixedDwell) {
  ChurnConfig config;
  config.kind = ChurnKind::kConveyor;
  config.conveyor_interval = 10;
  config.mean_dwell_slots = 35;
  config.fixed_dwell = true;
  anc::Pcg32 rng(3, 3);
  const std::size_t universe = UniverseSizeFor(config, 4, 100);
  const ChurnSchedule s = BuildChurnSchedule(config, universe, 4, 100, rng);
  for (const ChurnEvent& e : s.events) {
    if (e.arrive) {
      EXPECT_EQ(e.slot % 10, 0u);
    } else if (e.tag >= 4) {
      EXPECT_EQ(e.slot % 10, 5u);  // arrival slot + 35
    } else {
      EXPECT_EQ(e.slot, 35u);  // initial tags depart after one transit
    }
  }
}

TEST(ServiceProfiles, LookupAndReject) {
  for (const char* label : {"smoke", "soak", "batch", "flow"}) {
    ServiceConfig config;
    EXPECT_TRUE(LookupServiceProfile(label, &config)) << label;
    EXPECT_EQ(config.label, label);
    EXPECT_GT(config.max_slots, config.churn_stop_slot);
  }
  EXPECT_FALSE(LookupServiceProfile("nope", nullptr));
}

TEST(InventoryService, FcatSmokeDetectsEverythingUnderOff) {
  SoakOptions options;
  options.n_initial = 60;
  const SloReport r = RunSoakSingle(core::MakeFcatFactory({}),
                                    Profile("smoke"), options, /*run=*/0);
  ExpectConservation(r);
  EXPECT_GT(r.arrived, 60u);  // churn actually added tags
  EXPECT_GT(r.departed, 0u);
  // Fault-free smoke: every tag dwells past the detection floor, so
  // nothing is missed and the drain phase detects every remaining tag.
  EXPECT_EQ(r.missed_departed, 0u);
  EXPECT_EQ(r.undetected_at_end, 0u);
  EXPECT_EQ(r.detected, r.arrived);
  EXPECT_GT(r.rounds, 0u);
  EXPECT_GT(r.epochs, 0u);
  EXPECT_GT(r.detect_p99, 0.0);
  EXPECT_GE(r.detect_p99, r.detect_p50);
}

TEST(InventoryService, CodedAlohaFamilyBalancesTheLedger) {
  SoakOptions options;
  options.n_initial = 50;
  // Both coded-ALOHA readers through the smoke churn, then each through
  // one of the deterministic-flow profiles at full scale (batch deliveries
  // only start at slot 8000, so the profile cannot be shrunk).
  const struct {
    const char* profile;
    sim::ProtocolFactory factory;
  } cases[] = {{"smoke", core::MakeIrsaFactory()},
               {"smoke", core::MakeSeededFactory()},
               {"batch", core::MakeIrsaFactory()},
               {"flow", core::MakeSeededFactory()}};
  for (const auto& c : cases) {
    const SloReport r =
        RunSoakSingle(c.factory, Profile(c.profile), options, /*run=*/1);
    ExpectConservation(r);
    EXPECT_GT(r.arrived, 50u) << c.profile;
    EXPECT_EQ(r.missed_departed, 0u) << c.profile;
    EXPECT_EQ(r.undetected_at_end, 0u) << c.profile;
  }
}

TEST(InventoryService, ChaosKeepsMissRateBounded) {
  core::FcatOptions o;
  o.fault = *fault::FaultProfile("chaos");
  SoakOptions options;
  options.n_initial = 60;
  const SloReport r = RunSoakSingle(core::MakeFcatFactory(o), Profile("smoke"),
                                    options, /*run=*/0);
  ExpectConservation(r);
  // Chaos degrades latency and may miss short-dwell tags, but the run
  // must stay functional: most arrivals detected, records all released.
  EXPECT_GT(r.detected, (r.arrived * 3) / 4);
  EXPECT_LT(r.missed_rate, 0.25);
}

TEST(InventoryService, HandCraftedDeparturesAreMissed) {
  // Rip ten tags out one slot in: the reader cannot have detected them
  // all, so the missed ledger (and the kDepart missed flag) must fire.
  const std::size_t n = 30;
  anc::Pcg32 master(9, 9);
  anc::Pcg32 pop_rng = master.Split();
  anc::Pcg32 proto_rng = master.Split();
  const auto universe = sim::MakePopulation(n, pop_rng);
  auto protocol = core::MakeFcatFactory({})(universe, proto_rng);

  ServiceConfig config;
  config.churn_stop_slot = 100;
  config.max_slots = 4000;
  config.epoch_slots = 50;
  ChurnSchedule schedule;
  for (std::uint32_t tag = 0; tag < 10; ++tag) {
    schedule.events.push_back({1, tag, /*arrive=*/false});
  }
  InventoryService service(config, *protocol, universe, n, schedule);
  const SloReport r = service.Run();
  ExpectConservation(r);
  EXPECT_EQ(r.arrived, n);
  EXPECT_EQ(r.departed, 10u);
  EXPECT_GT(r.missed_departed, 0u);
  EXPECT_EQ(r.undetected_at_end, 0u);  // the 20 survivors all get read
  EXPECT_EQ(r.detected + r.missed_departed, n);
}

TEST(InventoryService, DeploymentChurnSmoke) {
  deploy::DeploymentConfig config;
  config.reader_rows = 2;
  config.reader_cols = 2;
  config.share_records = true;
  const auto factory =
      deploy::MakeDeploymentFactory(config, core::MakeFcatFactory({}));

  ServiceConfig service_config = Profile("smoke");
  service_config.churn_stop_slot = 1200;
  service_config.max_slots = 4000;
  SoakOptions options;
  options.n_initial = 40;
  const SloReport r = RunSoakSingle(factory, service_config, options, 0);
  ExpectConservation(r);
  EXPECT_GT(r.arrived, 40u);
  // Every tag on the floor is covered (2x2 grid tiles it), so the drain
  // phase must find everything that stayed. Short-dwell tags may be
  // missed — the deployment scheduler time-slices the readers — but the
  // ledger must stay balanced and the miss rate sane.
  EXPECT_EQ(r.undetected_at_end, 0u);
  EXPECT_LT(r.missed_rate, 0.5);
}

TEST(InventoryService, TraceIsByteIdenticalAcrossThreadCounts) {
  const ServiceConfig config = Profile("smoke");
  const auto factory = core::MakeFcatFactory({});
  std::string encoded[2];
  const std::size_t thread_counts[] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    SoakOptions options;
    options.n_initial = 50;
    options.runs = 4;
    options.base_seed = 3;
    options.n_threads = thread_counts[i];
    trace::MemorySink recorded;
    options.trace = &recorded;
    const SoakAggregate agg = RunSoakExperiment(factory, config, options);
    EXPECT_EQ(agg.conservation_failures, 0u);
    EXPECT_EQ(agg.open_records_after_shutdown, 0u);
    encoded[i] = trace::EncodeTrace(recorded.TakeFile());
  }
  EXPECT_FALSE(encoded[0].empty());
  EXPECT_EQ(encoded[0], encoded[1]);
}

TEST(InventoryService, AggregateIsThreadCountInvariant) {
  const ServiceConfig config = Profile("smoke");
  const auto factory = core::MakeSeededFactory();
  SoakAggregate base;
  for (int i = 0; i < 2; ++i) {
    SoakOptions options;
    options.n_initial = 40;
    options.runs = 4;
    options.base_seed = 11;
    options.n_threads = (i == 0) ? 1 : 4;
    const SoakAggregate agg = RunSoakExperiment(factory, config, options);
    if (i == 0) {
      base = agg;
      continue;
    }
    EXPECT_EQ(agg.detect_p99.mean(), base.detect_p99.mean());
    EXPECT_EQ(agg.staleness_p99.mean(), base.staleness_p99.mean());
    EXPECT_EQ(agg.arrived.mean(), base.arrived.mean());
    EXPECT_EQ(agg.missed_total, base.missed_total);
  }
}

TEST(ServiceReplay, SoakRunReplaysEventForEvent) {
  const auto factory = core::MakeFcatFactory({});
  const ServiceConfig config = Profile("smoke");
  SoakOptions options;
  options.n_initial = 50;
  options.base_seed = 21;
  trace::MemorySink sink;
  RunSoakSingle(factory, config, options, /*run=*/2, &sink);
  ASSERT_EQ(sink.runs().size(), 1u);
  const trace::RunTrace& run = sink.runs()[0];
  EXPECT_EQ(run.header.protocol, "FCAT-2~smoke");
  EXPECT_TRUE(IsServiceRun(run.header));
  EXPECT_EQ(ServiceBaseName(run.header.protocol), "FCAT-2");
  EXPECT_EQ(ServiceLabel(run.header.protocol), "smoke");

  const ReplayReport report = VerifyReplay(run, factory);
  EXPECT_TRUE(report.ok) << report.message;

  // A divergent recording must be caught.
  trace::RunTrace tampered = run;
  ASSERT_FALSE(tampered.events.empty());
  tampered.events[tampered.events.size() / 2].slot += 1;
  EXPECT_FALSE(VerifyReplay(tampered, factory).ok);

  // Unknown profile labels are an error, not a crash.
  trace::RunTrace unknown = run;
  unknown.header.protocol = "FCAT-2~nope";
  EXPECT_FALSE(VerifyReplay(unknown, factory).ok);
}

// Every inventory round ends by releasing its open records without a
// trace event; the time-series fold must drop exactly those at the next
// frame, so at every frame it holds the open records the frame reports.
TEST(TraceTimeSeries, SoakFoldHoldsExactlyTheReportedOpenRecords) {
  SoakOptions options;
  options.n_initial = 60;
  options.base_seed = 5;
  trace::MemorySink sink;
  const SloReport report = RunSoakSingle(core::MakeFcatFactory({}),
                                         Profile("smoke"), options, 0, &sink);
  ASSERT_GE(report.rounds, 2u);
  ASSERT_EQ(sink.runs().size(), 1u);
  trace::FrameSeriesSink series;
  series.BeginRun(sink.runs()[0].header);
  std::size_t frames = 0;
  for (const trace::TraceEvent& e : sink.runs()[0].events) {
    series.OnEvent(e);
    if (e.kind != trace::EventKind::kFrame) continue;
    ++frames;
    EXPECT_EQ(series.open_records(), e.record)
        << "frame " << e.frame << " at slot " << e.slot;
  }
  series.EndRun();
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(series.series().size(), frames);
}

TEST(ServiceReplay, ChurnEventsSurviveTheBinaryCodec) {
  const auto factory = core::MakeIrsaFactory();
  const ServiceConfig config = Profile("smoke");
  SoakOptions options;
  options.n_initial = 40;
  options.base_seed = 5;
  trace::MemorySink sink;
  RunSoakSingle(factory, config, options, /*run=*/0, &sink);
  ASSERT_EQ(sink.runs().size(), 1u);

  trace::TraceFile file{sink.runs()};
  trace::TraceFile decoded;
  ASSERT_EQ(testing_trace::ReadBack(trace::EncodeTrace(file), &decoded), "");
  EXPECT_EQ(decoded, file);

  bool saw_arrive = false, saw_depart = false, saw_detect = false,
       saw_epoch = false;
  for (const trace::TraceEvent& e : decoded.runs[0].events) {
    saw_arrive |= e.kind == trace::EventKind::kArrive;
    saw_depart |= e.kind == trace::EventKind::kDepart;
    saw_detect |= e.kind == trace::EventKind::kDetect;
    saw_epoch |= e.kind == trace::EventKind::kEpoch;
  }
  EXPECT_TRUE(saw_arrive && saw_depart && saw_detect && saw_epoch);
}

TEST(ServiceReplay, NonChurnProtocolsStillReplayUnchanged) {
  // The churn refactor must not disturb the closed-world replay path:
  // record a plain (non-service) IRSA run and verify it end to end.
  sim::ExperimentOptions eo;
  eo.n_tags = 120;
  eo.base_seed = 13;
  trace::MemorySink sink;
  sim::RunSingle(core::MakeIrsaFactory(), eo, /*run=*/0, &sink);
  ASSERT_EQ(sink.runs().size(), 1u);
  EXPECT_FALSE(IsServiceRun(sink.runs()[0].header));
  const service::ReplayReport report =
      service::VerifyReplay(sink.runs()[0], core::MakeIrsaFactory());
  EXPECT_TRUE(report.ok) << report.message;
}

}  // namespace
}  // namespace anc::service
