// Service checkpoint/restore: codec round-trips and fail-closed
// rejection, the committed golden checkpoint, and the headline
// crash-safety contract — a killed-and-resumed soak run produces
// byte-identical trace bytes and an identical SloReport to the
// uninterrupted run, for every checkpointable protocol family.
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "core/factories.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "store/container.h"
#include "store/crc32.h"

namespace anc::service {
namespace {

std::string TempPath(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

ServiceCheckpoint SampleCheckpoint() {
  ServiceCheckpoint ckpt;
  ckpt.run_index = 3;
  ckpt.base_seed = 99;
  ckpt.n_initial = 40;
  ckpt.max_slots = 4000;
  ckpt.service_name = "FCAT-2~smoke";
  ckpt.slot = 1500;
  ckpt.service_blob = "service-state-bytes";
  ckpt.protocol_blob = std::string("\x00\x01\x02proto", 8);
  ckpt.writer_blob = "writer";
  return ckpt;
}

std::string ReportBlob(const SloReport& report) {
  std::string out;
  PutSloReport(out, report);
  return out;
}

TEST(CheckpointCodec, RoundTrip) {
  const ServiceCheckpoint ckpt = SampleCheckpoint();
  const std::string bytes = EncodeCheckpoint(ckpt);
  ServiceCheckpoint got;
  ASSERT_EQ(DecodeCheckpoint(bytes, &got), "");
  EXPECT_EQ(got.version, kCheckpointVersion);
  EXPECT_EQ(got.run_index, ckpt.run_index);
  EXPECT_EQ(got.base_seed, ckpt.base_seed);
  EXPECT_EQ(got.n_initial, ckpt.n_initial);
  EXPECT_EQ(got.max_slots, ckpt.max_slots);
  EXPECT_EQ(got.service_name, ckpt.service_name);
  EXPECT_EQ(got.slot, ckpt.slot);
  EXPECT_EQ(got.service_blob, ckpt.service_blob);
  EXPECT_EQ(got.protocol_blob, ckpt.protocol_blob);
  EXPECT_EQ(got.writer_blob, ckpt.writer_blob);
}

// The bulk arena writers produce exactly the bytes of a PutVarint loop,
// count prefix included, at every varint length boundary.
TEST(CheckpointCodec, BulkVarintsMatchPutVarintLoop) {
  const std::vector<std::uint64_t> values = {
      0, 127, 128, std::uint64_t{1} << 14, (std::uint64_t{1} << 14) - 1,
      0xFFFFFFFFull, ~std::uint64_t{0}};
  for (const std::uint64_t v : values) {
    std::string one;
    ser::PutVarint(one, v);
    char buf[10];
    char* end = ser::WriteVarint(buf, v);
    EXPECT_EQ(std::string(buf, end), one) << v;
  }

  std::string loop = "prefix";
  ser::PutVarint(loop, values.size());
  for (const std::uint64_t v : values) ser::PutVarint(loop, v);
  std::string bulk = "prefix";
  ser::PutVarints(bulk, values);
  EXPECT_EQ(bulk, loop);

  // Rows with a bool field: the bool's varint is PutBool's byte.
  struct Row {
    std::uint32_t a;
    bool b;
  };
  const std::vector<Row> rows = {{0, true}, {300, false}, {0xFFFFFFFF, true}};
  loop.clear();
  ser::PutVarint(loop, rows.size());
  for (const Row& row : rows) {
    ser::PutVarint(loop, row.a);
    ser::PutBool(loop, row.b);
  }
  bulk.clear();
  ser::PutVarints(bulk, rows, [](const Row& row) {
    return std::array<std::uint64_t, 2>{row.a, row.b};
  });
  EXPECT_EQ(bulk, loop);

  const std::vector<std::uint64_t> empty;
  bulk.clear();
  ser::PutVarints(bulk, empty);
  EXPECT_EQ(bulk, std::string(1, '\0'));

  // Enough rows of every encoded length to cross the writer's internal
  // buffer many times.
  std::vector<std::uint64_t> many;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    many.push_back(x >> (x % 64));
  }
  loop.clear();
  ser::PutVarint(loop, many.size());
  for (const std::uint64_t v : many) ser::PutVarint(loop, v);
  bulk.clear();
  ser::PutVarints(bulk, many);
  EXPECT_EQ(bulk, loop);
}

TEST(CheckpointCodec, RejectsEveryByteFlip) {
  const std::string bytes = EncodeCheckpoint(SampleCheckpoint());
  ServiceCheckpoint got;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_NE(DecodeCheckpoint(bad, &got), "") << "flip at byte " << i;
  }
}

TEST(CheckpointCodec, RejectsTruncation) {
  const std::string bytes = EncodeCheckpoint(SampleCheckpoint());
  ServiceCheckpoint got;
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_NE(DecodeCheckpoint(bytes.substr(0, keep), &got), "")
        << "kept " << keep << " of " << bytes.size();
  }
}

// A future-version file must be rejected by this decoder even when its
// checksum is valid — the version gate, not the CRC, has to catch it.
TEST(CheckpointCodec, RejectsVersionBump) {
  std::string bytes = EncodeCheckpoint(SampleCheckpoint());
  // Layout: 8-byte magic, then the version varint (currently the single
  // byte 0x01), ..., 4-byte little-endian Crc32 trailer over the rest.
  ASSERT_EQ(bytes[8], '\x01');
  bytes[8] = static_cast<char>(kCheckpointVersion + 1);
  const std::uint32_t crc =
      store::Crc32(std::string_view(bytes).substr(0, bytes.size() - 4));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  ServiceCheckpoint got;
  EXPECT_NE(DecodeCheckpoint(bytes, &got), "");
}

TEST(CheckpointCodec, FileRoundTripAndAtomicity) {
  const std::string path = TempPath("ckpt_file_roundtrip.ckpt");
  ASSERT_EQ(WriteCheckpointFile(path, SampleCheckpoint()), "");
  // No .tmp litter: the write renamed it into place.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  ServiceCheckpoint got;
  ASSERT_EQ(ReadCheckpointFile(path, &got), "");
  EXPECT_EQ(got.service_name, "FCAT-2~smoke");
  std::remove(path.c_str());
}

TEST(SloReportFile, RoundTripAndRejectsCorruption) {
  const std::string path = TempPath("slo_roundtrip.slo");
  SloReport report;
  report.slots = 4000;
  report.epochs = 8;
  report.arrived = 31;
  report.detected = 29;
  report.detect_p99 = 321.5;
  ASSERT_EQ(WriteSloReportFile(path, report), "");
  SloReport got;
  ASSERT_EQ(ReadSloReportFile(path, &got), "");
  EXPECT_EQ(ReportBlob(got), ReportBlob(report));

  std::string bytes = Slurp(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  Spit(path, bytes);
  EXPECT_NE(ReadSloReportFile(path, &got), "");
  std::remove(path.c_str());
}

struct ResumeCase {
  const char* label;
  sim::ProtocolFactory factory;
};

std::vector<ResumeCase> CheckpointableFactories() {
  core::FcatOptions fcat;
  fcat.lambda = 2;
  core::ScatOptions scat;
  scat.lambda = 2;
  scat.estimation_prestep = true;
  return {{"fcat2", core::MakeFcatFactory(fcat)},
          {"scat2", core::MakeScatFactory(scat)},
          {"irsa", core::MakeIrsaFactory()},
          {"crdsa2", core::MakeCrdsaFactory()},
          {"seeded", core::MakeSeededFactory()}};
}

// The waveform phy keeps no savable record store, so FCAT over it opts
// out of checkpointing instead of writing a blob it could not restore.
TEST(ResumableSoak, SignalPhyFcatDoesNotCheckpoint) {
  const std::vector<TagId> none;
  const auto fcat =
      core::MakeFcatSignalFactory(core::FcatSignalOptions{})(none, Pcg32(1));
  EXPECT_EQ(fcat->name(), "FCAT-2-signal");
  EXPECT_FALSE(fcat->SupportsCheckpoint());
  EXPECT_FALSE(fcat->RestoreState(""));
}

// The headline contract. For each protocol family and thread setting:
// run the soak uninterrupted, then run it again killed mid-flight and
// resumed from the last checkpoint — trace bytes and final report must
// be identical.
TEST(ResumableSoak, KilledAndResumedRunIsByteIdentical) {
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  store::StoreWriterOptions sopts;
  sopts.block_events = 256;
  sopts.sync = store::SyncPolicy::kFlush;

  for (const ResumeCase& c : CheckpointableFactories()) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(c.label) + " threads=" +
                   std::to_string(threads));
      SoakOptions options;
      options.n_initial = 20;
      options.runs = 1;
      options.base_seed = 11;
      options.n_threads = threads;

      const std::string ref_path = TempPath("resume_ref.ancs");
      const std::string torn_path = TempPath("resume_torn.ancs");
      const std::string ckpt_path = TempPath("resume.ckpt");

      // Reference: uninterrupted (checkpointing on — cutting checkpoints
      // must not change the trace bytes).
      auto ref_sink = std::make_unique<store::StoreFileSink>(ref_path, sopts);
      ResumableOptions ref_opts;
      ref_opts.checkpoint_every_epochs = 1;
      ref_opts.checkpoint_path = TempPath("resume_ref.ckpt");
      const SloReport ref_report = RunSoakResumable(
          c.factory, config, options, 0, ref_sink.get(), ref_opts);
      ASSERT_EQ(ref_sink->Finish(), "");

      // Killed run: dies at slot 1100 with no shutdown path at all.
      auto torn_sink =
          std::make_unique<store::StoreFileSink>(torn_path, sopts);
      ResumableOptions kill_opts;
      kill_opts.checkpoint_every_epochs = 1;
      kill_opts.checkpoint_path = ckpt_path;
      kill_opts.abort_before_slot = 1100;
      bool aborted = false;
      (void)RunSoakResumable(c.factory, config, options, 0, torn_sink.get(),
                             kill_opts, &aborted);
      ASSERT_TRUE(aborted);
      torn_sink.reset();  // no Finish: the file is left torn

      // Resume from the checkpoint and run to completion.
      ResumableOptions resume_opts;
      resume_opts.checkpoint_every_epochs = 1;
      resume_opts.checkpoint_path = ckpt_path;
      SloReport resumed_report;
      std::unique_ptr<store::StoreFileSink> resumed_sink;
      ASSERT_EQ(ResumeSoak(c.factory, config, options, 0, ckpt_path,
                           torn_path, sopts, resume_opts, &resumed_report,
                           &resumed_sink),
                "");
      ASSERT_NE(resumed_sink, nullptr);
      ASSERT_EQ(resumed_sink->Finish(), "");

      EXPECT_EQ(Slurp(torn_path), Slurp(ref_path)) << "trace bytes differ";
      EXPECT_EQ(ReportBlob(resumed_report), ReportBlob(ref_report));

      std::remove(ref_path.c_str());
      std::remove(torn_path.c_str());
      std::remove(ckpt_path.c_str());
      std::remove((TempPath("resume_ref.ckpt")).c_str());
    }
  }
}

TEST(ResumableSoak, RejectsFingerprintMismatch) {
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const sim::ProtocolFactory factory = core::MakeFcatFactory(fcat);

  SoakOptions options;
  options.n_initial = 16;
  options.runs = 1;
  options.base_seed = 21;

  const std::string ckpt_path = TempPath("fingerprint.ckpt");
  ResumableOptions kill_opts;
  kill_opts.checkpoint_every_epochs = 1;
  kill_opts.checkpoint_path = ckpt_path;
  kill_opts.abort_before_slot = 1100;
  bool aborted = false;
  (void)RunSoakResumable(factory, config, options, 0, nullptr, kill_opts,
                         &aborted);
  ASSERT_TRUE(aborted);

  SloReport report;
  ResumableOptions resume_opts;  // no abort: resumes run to completion
  // Wrong seed, wrong run index, wrong population: each must be refused.
  SoakOptions wrong = options;
  wrong.base_seed = 22;
  EXPECT_NE(ResumeSoak(factory, config, wrong, 0, ckpt_path, "", {},
                       resume_opts, &report),
            "");
  EXPECT_NE(ResumeSoak(factory, config, options, 1, ckpt_path, "", {},
                       resume_opts, &report),
            "");
  wrong = options;
  wrong.n_initial = 17;
  EXPECT_NE(ResumeSoak(factory, config, wrong, 0, ckpt_path, "", {},
                       resume_opts, &report),
            "");
  // And the matching run resumes fine (untraced).
  EXPECT_EQ(ResumeSoak(factory, config, options, 0, ckpt_path, "", {},
                       resume_opts, &report),
            "");
  std::remove(ckpt_path.c_str());
}

// The committed golden checkpoint (tests/golden/soak_resume.ckpt,
// written by tools/make_crash_fixtures) must keep decoding — this is
// the compatibility gate a version bump has to pass.
TEST(GoldenCheckpoint, Decodes) {
  ServiceCheckpoint ckpt;
  ASSERT_EQ(
      ReadCheckpointFile(std::string(ANC_GOLDEN_DIR) + "/soak_resume.ckpt",
                         &ckpt),
      "");
  EXPECT_EQ(ckpt.version, std::uint64_t{1});
  EXPECT_EQ(ckpt.run_index, std::uint64_t{0});
  EXPECT_EQ(ckpt.base_seed, std::uint64_t{7});
  EXPECT_EQ(ckpt.n_initial, std::uint64_t{24});
  EXPECT_EQ(ckpt.max_slots, std::uint64_t{4000});
  EXPECT_EQ(ckpt.service_name, "FCAT-2~smoke");
  EXPECT_EQ(ckpt.slot, std::uint64_t{1000});
  EXPECT_FALSE(ckpt.service_blob.empty());
  EXPECT_FALSE(ckpt.protocol_blob.empty());
  EXPECT_FALSE(ckpt.writer_blob.empty());
}

// Re-cutting the fixture run with tools/make_crash_fixtures' parameters
// (smoke profile, seed 7, 24 initial tags, checkpoint every 2 epochs,
// killed before slot 1700, so the last cut is at slot 1000) reproduces
// the committed checkpoint and torn store byte for byte: any drift in
// checkpoint bytes fails here, not only in the crash-recovery CI job.
TEST(GoldenCheckpoint, RecutIsByteIdentical) {
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const sim::ProtocolFactory factory = core::MakeFcatFactory(fcat);
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  SoakOptions options;
  options.n_initial = 24;
  options.runs = 1;
  options.base_seed = 7;
  store::StoreWriterOptions sopts;
  sopts.block_events = 512;
  sopts.compress = true;
  sopts.sync = store::SyncPolicy::kFlush;

  const std::string trace_path = TempPath("golden_recut.ancs");
  const std::string ckpt_path = TempPath("golden_recut.ckpt");
  {
    auto sink = std::make_unique<store::StoreFileSink>(trace_path, sopts);
    ResumableOptions resumable;
    resumable.checkpoint_every_epochs = 2;
    resumable.checkpoint_path = ckpt_path;
    resumable.abort_before_slot = 1700;
    bool aborted = false;
    (void)RunSoakResumable(factory, config, options, 0, sink.get(),
                           resumable, &aborted);
    ASSERT_TRUE(aborted);
  }

  const std::string ckpt = Slurp(ckpt_path);
  const std::string golden_ckpt =
      Slurp(std::string(ANC_GOLDEN_DIR) + "/soak_resume.ckpt");
  EXPECT_TRUE(ckpt == golden_ckpt) << "checkpoint bytes drifted: "
                                   << ckpt.size() << " bytes vs golden "
                                   << golden_ckpt.size();
  const std::string trace = Slurp(trace_path);
  const std::string golden_trace =
      Slurp(std::string(ANC_GOLDEN_DIR) + "/soak_kill_boundary.ancs");
  EXPECT_TRUE(trace == golden_trace) << "store bytes drifted: "
                                     << trace.size() << " bytes vs golden "
                                     << golden_trace.size();
  std::remove(trace_path.c_str());
  std::remove(ckpt_path.c_str());
}

// Resuming from the committed checkpoint + torn store reproduces the
// uninterrupted run byte-for-byte: old checkpoint bytes restore onto
// the current build.
TEST(GoldenCheckpoint, ResumesByteIdentical) {
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const sim::ProtocolFactory factory = core::MakeFcatFactory(fcat);
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  SoakOptions options;
  options.n_initial = 24;
  options.runs = 1;
  options.base_seed = 7;
  store::StoreWriterOptions sopts;
  sopts.block_events = 512;
  sopts.sync = store::SyncPolicy::kFlush;

  // Reference, computed fresh on this build.
  const std::string ref_path = TempPath("golden_ref.ancs");
  auto ref_sink = std::make_unique<store::StoreFileSink>(ref_path, sopts);
  ResumableOptions ref_opts;
  ref_opts.checkpoint_every_epochs = 2;
  ref_opts.checkpoint_path = TempPath("golden_ref.ckpt");
  const SloReport ref_report =
      RunSoakResumable(factory, config, options, 0, ref_sink.get(), ref_opts);
  ASSERT_EQ(ref_sink->Finish(), "");

  // Resume from the committed fixture pair.
  const std::string trace_path = TempPath("golden_resume.ancs");
  const std::string ckpt_path = TempPath("golden_resume.ckpt");
  Spit(trace_path,
       Slurp(std::string(ANC_GOLDEN_DIR) + "/soak_kill_boundary.ancs"));
  Spit(ckpt_path, Slurp(std::string(ANC_GOLDEN_DIR) + "/soak_resume.ckpt"));

  ResumableOptions resume_opts;
  resume_opts.checkpoint_every_epochs = 2;
  resume_opts.checkpoint_path = ckpt_path;
  SloReport resumed_report;
  std::unique_ptr<store::StoreFileSink> resumed_sink;
  ASSERT_EQ(ResumeSoak(factory, config, options, 0, ckpt_path, trace_path,
                       sopts, resume_opts, &resumed_report, &resumed_sink),
            "");
  ASSERT_NE(resumed_sink, nullptr);
  ASSERT_EQ(resumed_sink->Finish(), "");

  EXPECT_EQ(Slurp(trace_path), Slurp(ref_path));
  EXPECT_EQ(ReportBlob(resumed_report), ReportBlob(ref_report));

  std::remove(ref_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(ckpt_path.c_str());
  std::remove(TempPath("golden_ref.ckpt").c_str());
}

void ExpectAggregateEq(const SoakAggregate& a, const SoakAggregate& b) {
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

// Aggregate invariance: the experiment aggregate is identical at any
// thread count, and a fold of per-run reports where every run was
// killed and resumed reproduces it exactly. (elapsed_seconds is wall
// clock and deliberately excluded from the comparison.)
TEST(ResumableSoak, ThreadInvariantAggregateSurvivesKills) {
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const sim::ProtocolFactory factory = core::MakeFcatFactory(fcat);
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));

  SoakOptions options;
  options.n_initial = 20;
  options.runs = 3;
  options.base_seed = 31;

  options.n_threads = 1;
  const SoakAggregate agg1 = RunSoakExperiment(factory, config, options);
  options.n_threads = 4;
  const SoakAggregate agg4 = RunSoakExperiment(factory, config, options);
  ExpectAggregateEq(agg1, agg4);

  // Every run killed at slot 1300 and resumed untraced, folded in run
  // order — the supervisor's merge path.
  SoakAggregate resumed_fold;
  for (std::size_t run = 0; run < options.runs; ++run) {
    const std::string ckpt_path =
        TempPath(("thread_inv_" + std::to_string(run) + ".ckpt").c_str());
    ResumableOptions kill_opts;
    kill_opts.checkpoint_every_epochs = 1;
    kill_opts.checkpoint_path = ckpt_path;
    kill_opts.abort_before_slot = 1300;
    bool aborted = false;
    (void)RunSoakResumable(factory, config, options, run, nullptr, kill_opts,
                           &aborted);
    ASSERT_TRUE(aborted);
    SloReport report;
    ResumableOptions resume_opts;  // no abort: runs to completion
    ASSERT_EQ(ResumeSoak(factory, config, options, run, ckpt_path, "", {},
                         resume_opts, &report),
              "");
    AccumulateSoak(resumed_fold, report);
    std::remove(ckpt_path.c_str());
  }
  ExpectAggregateEq(agg1, resumed_fold);

  // SoakAggregate::Merge: a two-shard split folds to the same totals.
  SoakAggregate left = resumed_fold;  // reuse: totals only need checking
  SoakAggregate right;
  SoakAggregate merged = left;
  merged.Merge(right);  // merging an empty aggregate is the identity
  ExpectAggregateEq(merged, left);
}

}  // namespace
}  // namespace anc::service
