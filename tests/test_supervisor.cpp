// Sharded soak supervisor: a clean fleet reproduces RunSoakExperiment
// bit-identically; kill and hang chaos recover from checkpoints to the
// same bytes; an exhausted crash budget fails the run rather than
// hanging or lying.
#include "supervise/supervisor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "common/file_io.h"
#include "core/factories.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "store/container.h"

namespace anc::supervise {
namespace {

std::string TempDirFor(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0777);
  // Scrub leftovers from a previous run: a stale run_<i>.ckpt would
  // make a fresh worker resume instead of starting clean.
  for (std::size_t i = 0; i < 16; ++i) {
    std::remove(SoakSupervisor::TracePath(dir, i).c_str());
    std::remove(SoakSupervisor::CheckpointPath(dir, i).c_str());
    std::remove(SoakSupervisor::ReportPath(dir, i).c_str());
  }
  return dir;
}

std::string Slurp(const std::string& path) {
  std::string bytes;
  EXPECT_EQ(ReadWholeFile(path, &bytes), "");
  return bytes;
}

sim::ProtocolFactory Fcat2() {
  core::FcatOptions options;
  options.lambda = 2;
  return core::MakeFcatFactory(options);
}

service::ServiceConfig Smoke() {
  service::ServiceConfig config;
  EXPECT_TRUE(service::LookupServiceProfile("smoke", &config));
  return config;
}

void ExpectAggregateEq(const service::SoakAggregate& a,
                       const service::SoakAggregate& b) {
  const auto eq = [](const RunningStats& x, const RunningStats& y) {
    const RunningStats::State sx = x.SaveState();
    const RunningStats::State sy = y.SaveState();
    EXPECT_EQ(sx.count, sy.count);
    EXPECT_EQ(sx.mean, sy.mean);
    EXPECT_EQ(sx.m2, sy.m2);
    EXPECT_EQ(sx.min, sy.min);
    EXPECT_EQ(sx.max, sy.max);
  };
  eq(a.detect_p50, b.detect_p50);
  eq(a.detect_p99, b.detect_p99);
  eq(a.staleness_p99, b.staleness_p99);
  eq(a.missed_rate, b.missed_rate);
  eq(a.ghost_rate, b.ghost_rate);
  eq(a.mean_population, b.mean_population);
  eq(a.arrived, b.arrived);
  eq(a.departed, b.departed);
  eq(a.detected, b.detected);
  eq(a.slots, b.slots);
  eq(a.rounds, b.rounds);
  EXPECT_EQ(a.missed_total, b.missed_total);
  EXPECT_EQ(a.ghost_detections_total, b.ghost_detections_total);
  EXPECT_EQ(a.suppressed_arrivals_total, b.suppressed_arrivals_total);
  EXPECT_EQ(a.conservation_failures, b.conservation_failures);
  EXPECT_EQ(a.open_records_after_shutdown, b.open_records_after_shutdown);
  EXPECT_EQ(a.churn_unsupported_runs, b.churn_unsupported_runs);
}

// Single-process reference trace for one run, written with the same
// store options and checkpoint cadence a worker uses.
std::string ReferenceTrace(const service::SoakOptions& options,
                           std::size_t run, const SupervisorConfig& sup,
                           const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  auto sink =
      std::make_unique<store::StoreFileSink>(path, sup.store_options);
  service::ResumableOptions resumable;
  resumable.checkpoint_every_epochs = sup.checkpoint_every_epochs;
  resumable.checkpoint_path = path + ".ckpt";
  (void)service::RunSoakResumable(Fcat2(), Smoke(), options, run, sink.get(),
                                  resumable);
  EXPECT_EQ(sink->Finish(), "");
  std::remove((path + ".ckpt").c_str());
  return path;
}

TEST(Supervisor, CleanFleetMatchesExperiment) {
  service::SoakOptions options;
  options.n_initial = 18;
  options.runs = 3;
  options.base_seed = 5;

  SupervisorConfig sup;
  sup.dir = TempDirFor("sup_clean");
  sup.workers = 2;
  sup.checkpoint_every_epochs = 2;
  sup.store_options.sync = store::SyncPolicy::kFlush;

  SoakSupervisor supervisor(Fcat2(), Smoke(), options, sup);
  const SupervisorResult result = supervisor.Run();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.shards.size(), options.runs);
  for (const ShardOutcome& s : result.shards) {
    EXPECT_TRUE(s.ok) << "run " << s.run;
    EXPECT_EQ(s.attempts, 1);
    EXPECT_EQ(s.crashes, 0);
    EXPECT_FALSE(s.resumed);
  }
  EXPECT_EQ(result.restarts, 0u);
  EXPECT_EQ(result.hangs_detected, 0u);
  EXPECT_EQ(result.chaos_injected, 0u);
  EXPECT_EQ(result.fleet.shards_reporting, options.runs);
  EXPECT_GT(result.fleet.epochs_published, 0u);

  const service::SoakAggregate reference =
      service::RunSoakExperiment(Fcat2(), Smoke(), options);
  ExpectAggregateEq(result.aggregate, reference);

  // Shard 0's trace store is byte-identical to the single-process run.
  const std::string ref =
      ReferenceTrace(options, 0, sup, "sup_clean_ref.ancs");
  EXPECT_EQ(Slurp(SoakSupervisor::TracePath(sup.dir, 0)), Slurp(ref));
  std::remove(ref.c_str());
}

TEST(Supervisor, KillChaosRecoversByteIdentical) {
  service::SoakOptions options;
  options.n_initial = 18;
  options.runs = 2;
  options.base_seed = 5;

  SupervisorConfig sup;
  sup.dir = TempDirFor("sup_kill");
  sup.workers = 2;
  sup.checkpoint_every_epochs = 1;
  sup.store_options.sync = store::SyncPolicy::kFlush;
  sup.chaos = ChaosKind::kKill;
  sup.chaos_at_slot = 1500;
  sup.chaos_runs = {0};

  SoakSupervisor supervisor(Fcat2(), Smoke(), options, sup);
  const SupervisorResult result = supervisor.Run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(result.chaos_injected, 1u);
  EXPECT_GE(result.restarts, 1u);
  ASSERT_EQ(result.shards.size(), 2u);
  EXPECT_TRUE(result.shards[0].ok);
  EXPECT_GE(result.shards[0].attempts, 2);
  EXPECT_GE(result.shards[0].crashes, 1);
  EXPECT_TRUE(result.shards[0].resumed);
  EXPECT_TRUE(result.shards[1].ok);
  EXPECT_EQ(result.shards[1].attempts, 1);

  // The killed-and-resumed shard's store and the merged aggregate are
  // exactly what an undisturbed execution produces.
  const service::SoakAggregate reference =
      service::RunSoakExperiment(Fcat2(), Smoke(), options);
  ExpectAggregateEq(result.aggregate, reference);
  const std::string ref = ReferenceTrace(options, 0, sup, "sup_kill_ref.ancs");
  EXPECT_EQ(Slurp(SoakSupervisor::TracePath(sup.dir, 0)), Slurp(ref));
  std::remove(ref.c_str());
}

TEST(Supervisor, HangChaosIsDetectedAndRecovered) {
  service::SoakOptions options;
  options.n_initial = 18;
  options.runs = 2;
  options.base_seed = 5;

  SupervisorConfig sup;
  sup.dir = TempDirFor("sup_hang");
  sup.workers = 2;
  sup.checkpoint_every_epochs = 1;
  sup.store_options.sync = store::SyncPolicy::kFlush;
  sup.heartbeat_timeout_s = 0.5;
  sup.chaos = ChaosKind::kHang;
  sup.chaos_at_slot = 1500;
  sup.chaos_runs = {1};

  SoakSupervisor supervisor(Fcat2(), Smoke(), options, sup);
  const SupervisorResult result = supervisor.Run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(result.hangs_detected, 1u);
  ASSERT_EQ(result.shards.size(), 2u);
  EXPECT_TRUE(result.shards[1].ok);
  EXPECT_GE(result.shards[1].hang_kills, 1);
  EXPECT_GE(result.shards[1].attempts, 2);

  const service::SoakAggregate reference =
      service::RunSoakExperiment(Fcat2(), Smoke(), options);
  ExpectAggregateEq(result.aggregate, reference);
}

// Crash budget: with zero restarts allowed, an injected kill fails the
// fleet — loudly, with the failing shard identified — instead of
// retrying forever or reporting a partial aggregate as complete.
TEST(Supervisor, ExhaustedCrashBudgetFailsTheFleet) {
  service::SoakOptions options;
  options.n_initial = 16;
  options.runs = 2;
  options.base_seed = 9;

  SupervisorConfig sup;
  sup.dir = TempDirFor("sup_budget");
  sup.workers = 2;
  sup.checkpoint_every_epochs = 1;
  sup.max_restarts_per_run = 0;
  sup.chaos = ChaosKind::kKill;
  sup.chaos_at_slot = 1200;
  sup.chaos_runs = {0};

  SoakSupervisor supervisor(Fcat2(), Smoke(), options, sup);
  const SupervisorResult result = supervisor.Run();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  ASSERT_EQ(result.shards.size(), 2u);
  EXPECT_FALSE(result.shards[0].ok);
  EXPECT_TRUE(result.shards[1].ok);  // the healthy shard still lands
}

// Per-shard rings feed the fleet view: after a clean run every shard
// published its final epoch, and the per-shard log exposes the last
// snapshot to live readers.
TEST(Supervisor, ShardLogsPublishEpochSnapshots) {
  service::SoakOptions options;
  options.n_initial = 16;
  options.runs = 2;
  options.base_seed = 3;

  SupervisorConfig sup;
  sup.dir = TempDirFor("sup_logs");
  sup.workers = 2;
  sup.checkpoint_every_epochs = 2;
  sup.snapshot_ring = 8;

  SoakSupervisor supervisor(Fcat2(), Smoke(), options, sup);
  const SupervisorResult result = supervisor.Run();
  ASSERT_TRUE(result.ok) << result.error;
  for (std::size_t run = 0; run < options.runs; ++run) {
    const store::EpochSnapshotLog* log = supervisor.shard_log(run);
    ASSERT_NE(log, nullptr) << "run " << run;
    store::EpochSnapshot snap;
    ASSERT_TRUE(log->Latest(&snap)) << "run " << run;
    EXPECT_GT(snap.epoch, 0u);
  }
  const FleetView fleet = supervisor.Fleet();
  EXPECT_EQ(fleet.shards_reporting, options.runs);
  EXPECT_EQ(fleet.epochs_published, result.fleet.epochs_published);
}

}  // namespace
}  // namespace anc::supervise
