// Service checkpoint/restore: codec round-trips and fail-closed
// rejection, the committed golden checkpoint, and the headline
// crash-safety contract — a killed-and-resumed soak run produces
// byte-identical trace bytes and an identical SloReport to the
// uninterrupted run, for every checkpointable protocol family.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "blob_patch.h"
#include "checkpointable_factories.h"
#include "common/chunk_cache.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/factories.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "sim/population.h"
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
  bytes.resize(bytes.size() - 4);
  ser::PutU32Le(bytes, store::Crc32(bytes));
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

// WriteCheckpointFile writes the blobs in place instead of encoding the
// file first; the file still holds exactly EncodeCheckpoint's bytes, at
// every length-prefix size.
TEST(CheckpointCodec, FileBytesAreEncodeCheckpoint) {
  const std::string path = TempPath("ckpt_file_bytes.ckpt");
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{127},
                              std::size_t{128}, std::size_t{16383},
                              std::size_t{16384}, (std::size_t{1} << 21) + 5}) {
    ServiceCheckpoint ckpt = SampleCheckpoint();
    ckpt.protocol_blob.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ckpt.protocol_blob[i] = static_cast<char>(i * 131 + 7);
    }
    ckpt.writer_blob.assign(n / 3, 'w');
    ASSERT_EQ(WriteCheckpointFile(path, ckpt), "");
    EXPECT_TRUE(Slurp(path) == EncodeCheckpoint(ckpt)) << n;
  }
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

using testing_rows::CheckpointableFactories;
using testing_rows::ResumeCase;

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
      const std::string ref_ckpt_path = ref_opts.checkpoint_path;
      const SloReport ref_report = RunSoakResumable(
          c.factory, config, options, 0, ref_sink.get(), ref_opts);
      ASSERT_EQ(ref_sink->Finish(), "");
      if (c.evicts) {
        EXPECT_GT(ref_report.metrics.records_evicted, 0u);
      }

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

      // The checkpoints the resumed run cut after its restore (which drops
      // every encoding cache) are the reference run's: compare the last.
      ServiceCheckpoint ref_last;
      ServiceCheckpoint resumed_last;
      ASSERT_EQ(ReadCheckpointFile(ref_ckpt_path, &ref_last), "");
      ASSERT_EQ(ReadCheckpointFile(ckpt_path, &resumed_last), "");
      EXPECT_GT(resumed_last.slot, 1100u);
      EXPECT_EQ(resumed_last.slot, ref_last.slot);
      EXPECT_TRUE(resumed_last.protocol_blob == ref_last.protocol_blob)
          << "protocol blob differs";
      EXPECT_TRUE(resumed_last.service_blob == ref_last.service_blob)
          << "service blob differs";

      std::remove(ref_path.c_str());
      std::remove(torn_path.c_str());
      std::remove(ckpt_path.c_str());
      std::remove(ref_ckpt_path.c_str());
    }
  }
}

// The contract the soak drivers share: cutting a checkpoint every epoch
// leaves the run itself untouched, so RunSoakResumable without a kill
// writes RunSoakSingle's store bytes and returns its report.
TEST(ResumableSoak, CheckpointingLeavesTheRunUnchanged) {
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  store::StoreWriterOptions sopts;
  sopts.block_events = 256;
  sopts.sync = store::SyncPolicy::kFlush;
  SoakOptions options;
  options.n_initial = 20;
  options.runs = 1;
  options.base_seed = 13;

  for (const ResumeCase& c : CheckpointableFactories()) {
    SCOPED_TRACE(c.label);
    const std::string single_path = TempPath("single.ancs");
    const std::string cut_path = TempPath("cut_every_epoch.ancs");
    const std::string ckpt_path = TempPath("cut_every_epoch.ckpt");

    auto single_sink =
        std::make_unique<store::StoreFileSink>(single_path, sopts);
    const SloReport single =
        RunSoakSingle(c.factory, config, options, 0, single_sink.get());
    ASSERT_EQ(single_sink->Finish(), "");

    auto cut_sink = std::make_unique<store::StoreFileSink>(cut_path, sopts);
    ResumableOptions cut_opts;
    cut_opts.checkpoint_every_epochs = 1;
    cut_opts.checkpoint_path = ckpt_path;
    bool aborted = false;
    const SloReport cut = RunSoakResumable(c.factory, config, options, 0,
                                           cut_sink.get(), cut_opts, &aborted);
    ASSERT_EQ(cut_sink->Finish(), "");
    EXPECT_FALSE(aborted);

    // A cut really happened: the last checkpoint is of this run.
    ServiceCheckpoint last;
    ASSERT_EQ(ReadCheckpointFile(ckpt_path, &last), "");
    EXPECT_GT(last.slot, 0u);
    EXPECT_FALSE(last.writer_blob.empty());

    EXPECT_TRUE(Slurp(cut_path) == Slurp(single_path)) << "store bytes differ";
    EXPECT_EQ(ReportBlob(cut), ReportBlob(single));
    std::remove(single_path.c_str());
    std::remove(cut_path.c_str());
    std::remove(ckpt_path.c_str());
  }
}

// `aborted` reports this run's kill hook, whatever the caller left in
// it: a stale true must not read as a kill or drop the run-end framing.
TEST(ResumableSoak, AbortedFlagReportsThisRun) {
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  SoakOptions options;
  options.n_initial = 16;
  const sim::ProtocolFactory factory = core::MakeFcatFactory({});
  const std::string single_path = TempPath("aborted_single.ancs");
  const std::string resumable_path = TempPath("aborted_resumable.ancs");

  store::StoreFileSink single(single_path);
  (void)RunSoakSingle(factory, config, options, 0, &single);
  ASSERT_EQ(single.Finish(), "");
  store::StoreFileSink resumable(resumable_path);
  bool aborted = true;  // left over from an earlier, killed run
  (void)RunSoakResumable(factory, config, options, 0, &resumable, {},
                         &aborted);
  ASSERT_EQ(resumable.Finish(), "");
  EXPECT_FALSE(aborted);
  EXPECT_TRUE(Slurp(resumable_path) == Slurp(single_path))
      << "store bytes differ";
  std::remove(single_path.c_str());
  std::remove(resumable_path.c_str());
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
  const std::string mismatch =
      "checkpoint: fingerprint mismatch (wrong run for this checkpoint)";
  // Each of the five fingerprint fields must be refused on its own: wrong
  // seed, run index, population, budget and service name.
  SoakOptions wrong = options;
  wrong.base_seed = 22;
  EXPECT_EQ(ResumeSoak(factory, config, wrong, 0, ckpt_path, "", {},
                       resume_opts, &report),
            mismatch);
  EXPECT_EQ(ResumeSoak(factory, config, options, 1, ckpt_path, "", {},
                       resume_opts, &report),
            mismatch);
  wrong = options;
  wrong.n_initial = 17;
  EXPECT_EQ(ResumeSoak(factory, config, wrong, 0, ckpt_path, "", {},
                       resume_opts, &report),
            mismatch);
  ServiceConfig budget = config;
  budget.max_slots = config.max_slots + 1000;
  EXPECT_EQ(ResumeSoak(factory, budget, options, 0, ckpt_path, "", {},
                       resume_opts, &report),
            mismatch);
  // The service name is "<protocol>~<profile>": another profile label on
  // the same parameters, and another protocol under the same profile.
  ServiceConfig relabeled = config;
  relabeled.label = "soak";
  EXPECT_EQ(ResumeSoak(factory, relabeled, options, 0, ckpt_path, "", {},
                       resume_opts, &report),
            mismatch);
  core::FcatOptions fcat3;
  fcat3.lambda = 3;
  EXPECT_EQ(ResumeSoak(core::MakeFcatFactory(fcat3), config, options, 0,
                       ckpt_path, "", {}, resume_opts, &report),
            mismatch);
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

// CRC-32 folded over a protocol's SaveState bytes at its frame
// boundaries. Owned by the test: the soak driver destroys the protocol.
struct BoundaryCrc {
  std::uint32_t crc = 0;
  std::uint64_t boundaries = 0;
};

// Forwards every call to the wrapped protocol and folds its SaveState
// bytes into *out at each frame boundary: before every Step() that opens
// a frame, and once the run finishes. With `every_step` it folds after
// every Step() instead, mid-frame states included.
class FrameBoundaryCrc final : public sim::Protocol {
 public:
  FrameBoundaryCrc(std::unique_ptr<sim::Protocol> inner, BoundaryCrc* out,
                   bool every_step = false)
      : inner_(std::move(inner)), out_(out), every_step_(every_step) {}

  std::string_view name() const override { return inner_->name(); }
  void Step() override {
    if (every_step_) {
      inner_->Step();
      std::string after;
      inner_->SaveState(&after);
      Fold(after);
      return;
    }
    std::string before;
    inner_->SaveState(&before);
    const std::uint64_t frames = inner_->metrics().frames;
    inner_->Step();
    if (inner_->metrics().frames != frames) Fold(before);
    if (inner_->Finished()) {
      std::string after;
      inner_->SaveState(&after);
      Fold(after);
    }
  }
  bool Finished() const override { return inner_->Finished(); }
  const sim::RunMetrics& metrics() const override {
    return inner_->metrics();
  }
  void AttachTrace(const trace::TraceContext& context) override {
    inner_->AttachTrace(context);
  }
  std::span<const TagId> LearnedThisStep() const override {
    return inner_->LearnedThisStep();
  }
  std::span<const TagId> InjectKnownId(const TagId& id) override {
    return inner_->InjectKnownId(id);
  }
  bool SupportsChurn() const override { return inner_->SupportsChurn(); }
  bool ArriveTag(const TagId& id) override { return inner_->ArriveTag(id); }
  bool DepartTag(const TagId& id) override { return inner_->DepartTag(id); }
  bool BeginInventoryRound(bool refresh) override {
    return inner_->BeginInventoryRound(refresh);
  }
  std::size_t OpenPhyRecords() const override {
    return inner_->OpenPhyRecords();
  }
  void Shutdown() override { inner_->Shutdown(); }
  bool SupportsCheckpoint() const override {
    return inner_->SupportsCheckpoint();
  }
  void SaveState(std::string* out) const override { inner_->SaveState(out); }
  bool RestoreState(std::string_view bytes) override {
    return inner_->RestoreState(bytes);
  }

 private:
  void Fold(const std::string& state) {
    out_->crc = store::Crc32(state, out_->crc);
    ++out_->boundaries;
  }

  std::unique_ptr<sim::Protocol> inner_;
  BoundaryCrc* out_;
  bool every_step_;
};

// Runs a churning smoke soak of `factory` and folds its SaveState bytes
// at every frame boundary, or after every Step() with `every_step`.
BoundaryCrc CodedSmokeSoakCrc(const sim::ProtocolFactory& factory,
                              bool every_step) {
  ServiceConfig config;
  EXPECT_TRUE(LookupServiceProfile("smoke", &config));
  SoakOptions options;
  options.n_initial = 60;
  options.runs = 1;
  options.base_seed = 5;
  BoundaryCrc got;
  const sim::ProtocolFactory wrapped =
      [&](std::span<const TagId> population, Pcg32 rng) {
        return std::unique_ptr<sim::Protocol>(
            std::make_unique<FrameBoundaryCrc>(factory(population, rng),
                                               &got, every_step));
      };
  const SloReport report = RunSoakSingle(wrapped, config, options, 0);
  EXPECT_TRUE(report.churn_supported);
  return got;
}

// The coded-ALOHA family's checkpoint bytes at every frame boundary of a
// churning smoke soak, pinned. The stored records' constituent order is
// serialized but appears in no trace, so only this catches a decoder
// that reorders survivors.
TEST(GoldenCheckpoint, CodedFamilyFrameBoundaryBytesPinned) {
  struct Pin {
    const char* label;
    sim::ProtocolFactory factory;
    std::uint64_t boundaries;
    std::uint32_t crc;
  };
  const Pin pins[] = {
      {"irsa", core::MakeIrsaFactory(), 174, 0x6e2ea40bu},
      {"crdsa2", core::MakeCrdsaFactory(), 152, 0x7481960bu},
      {"seeded", core::MakeSeededFactory(), 160, 0x1f30104au},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.label);
    const BoundaryCrc got = CodedSmokeSoakCrc(pin.factory, false);
    EXPECT_EQ(got.boundaries, pin.boundaries);
    EXPECT_EQ(got.crc, pin.crc);
  }
}

// The same soak's checkpoint bytes after every Step(). The boundary pin
// sees only finished frames; this one also sees each frame in progress,
// with the slots DepartTag() shortened ahead of the cursor.
TEST(GoldenCheckpoint, CodedFamilyMidFrameBytesPinned) {
  struct Pin {
    const char* label;
    sim::ProtocolFactory factory;
    std::uint64_t steps;
    std::uint32_t crc;
  };
  const Pin pins[] = {
      {"irsa", core::MakeIrsaFactory(), 2500, 0x5b05b9f8u},
      {"crdsa2", core::MakeCrdsaFactory(), 2500, 0x8594441eu},
      {"seeded", core::MakeSeededFactory(), 2500, 0x8ed94df7u},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.label);
    const BoundaryCrc got = CodedSmokeSoakCrc(pin.factory, true);
    EXPECT_EQ(got.boundaries, pin.steps);
    EXPECT_EQ(got.crc, pin.crc);
  }
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

// ---- encoding cache and restore validation -------------------------------

// The cache hands out exactly the bytes of a full AppendVarints encode
// while rows it was told may change do change (or close), and rows are
// appended; its watched rows are then exactly the open ones.
TEST(EncodeCache, ChunksMatchAFullEncode) {
  struct Row {
    std::uint64_t value;
    bool open;
  };
  const auto fields = [](const Row& row) {
    return std::array<std::uint64_t, 2>{row.value, row.open};
  };
  std::vector<Row> rows;
  ser::VarintChunkCache<2> cache;
  Pcg32 rng(3, 4);
  const auto value = [&rng] {
    // Every varint length from 1 to 10 bytes.
    return std::uint64_t{rng()} << 32 >> (rng.UniformBelow(64) & 63);
  };
  for (int step = 0; step < 60; ++step) {
    const std::uint32_t grow = rng.UniformBelow(step % 7 == 0 ? 3000 : 300);
    for (std::uint32_t i = 0; i < grow; ++i) rows.push_back({value(), true});
    for (Row& row : rows) {
      if (!row.open || rng.UniformBelow(8) != 0) continue;
      if (rng.UniformBelow(2) == 0) {
        row.open = false;
      } else {
        row.value = value();
      }
    }
    cache.Update(rows, fields,
                 [&rows](std::size_t i) { return rows[i].open; });
    ser::Pieces pieces;
    pieces.bytes() = "head";
    cache.AppendTo(pieces);
    pieces.bytes().append("tail");
    std::string got;
    pieces.AppendTo(got);
    EXPECT_EQ(pieces.size(), got.size());
    std::string want = "head";
    ser::AppendVarints(want, rows, fields);
    want.append("tail");
    ASSERT_TRUE(got == want) << "step " << step;

    std::vector<std::size_t> watched;
    cache.ForEachWatched([&](std::size_t i) { watched.push_back(i); });
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].open) open.push_back(i);
    }
    EXPECT_EQ(watched, open) << "step " << step;
  }
  EXPECT_GT(rows.size(), 8 * ser::VarintChunkCache<2>::kChunkRows);
}

// Forwards every sim::Protocol call to the protocol it wraps.
class Forwarding : public sim::Protocol {
 public:
  explicit Forwarding(std::unique_ptr<sim::Protocol> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  void Step() override { inner_->Step(); }
  bool Finished() const override { return inner_->Finished(); }
  const sim::RunMetrics& metrics() const override {
    return inner_->metrics();
  }
  void AttachTrace(const trace::TraceContext& context) override {
    inner_->AttachTrace(context);
  }
  std::span<const TagId> LearnedThisStep() const override {
    return inner_->LearnedThisStep();
  }
  std::span<const TagId> InjectKnownId(const TagId& id) override {
    return inner_->InjectKnownId(id);
  }
  bool SupportsChurn() const override { return inner_->SupportsChurn(); }
  bool ArriveTag(const TagId& id) override { return inner_->ArriveTag(id); }
  bool DepartTag(const TagId& id) override { return inner_->DepartTag(id); }
  bool BeginInventoryRound(bool refresh) override {
    return inner_->BeginInventoryRound(refresh);
  }
  std::size_t OpenPhyRecords() const override {
    return inner_->OpenPhyRecords();
  }
  void Shutdown() override { inner_->Shutdown(); }
  bool SupportsCheckpoint() const override {
    return inner_->SupportsCheckpoint();
  }
  void SaveState(std::string* out) const override { inner_->SaveState(out); }
  bool RestoreState(std::string_view bytes) override {
    return inner_->RestoreState(bytes);
  }

 protected:
  std::unique_ptr<sim::Protocol> inner_;
};

// Owned by the test: the soak driver destroys the protocol.
struct SaveChecks {
  std::uint64_t first_twin_save = 0;  // cut at which the twin first saves
  std::uint64_t saves = 0;            // cuts so far
  std::size_t largest = 0;            // bytes of the largest save
};

// Checks every SaveState (every checkpoint cut) three ways:
//  - saving again with nothing changed (a warm cache) gives equal bytes;
//  - an instance built by the same factory and restored from them (a
//    cold cache) saves the same bytes back;
//  - a twin built like the live protocol and driven in lockstep, whose
//    first save is at cut `first_twin_save` (so a cold, full encode of
//    the live state there, and a different save history after), saves
//    the same bytes.
// The restore check alone cannot see a cached row that went stale but
// stays consistent with the rest of the blob; the twin can.
class SaveChecker final : public Forwarding {
 public:
  SaveChecker(sim::ProtocolFactory factory, std::span<const TagId> population,
              Pcg32 rng, SaveChecks* checks)
      : Forwarding(factory(population, rng)),
        twin_(factory(population, rng)),
        factory_(std::move(factory)),
        population_(population),
        rng_(rng),
        checks_(checks) {}

  void Step() override {
    inner_->Step();
    twin_->Step();
  }
  std::span<const TagId> InjectKnownId(const TagId& id) override {
    twin_->InjectKnownId(id);
    return inner_->InjectKnownId(id);
  }
  bool ArriveTag(const TagId& id) override {
    twin_->ArriveTag(id);
    return inner_->ArriveTag(id);
  }
  bool DepartTag(const TagId& id) override {
    twin_->DepartTag(id);
    return inner_->DepartTag(id);
  }
  bool BeginInventoryRound(bool refresh) override {
    twin_->BeginInventoryRound(refresh);
    return inner_->BeginInventoryRound(refresh);
  }
  void Shutdown() override {
    inner_->Shutdown();
    twin_->Shutdown();
  }

  void SaveState(std::string* out) const override {
    const std::size_t start = out->size();
    inner_->SaveState(out);
    const std::string bytes = out->substr(start);
    const std::uint64_t cut = checks_->saves++;
    checks_->largest = std::max(checks_->largest, bytes.size());

    std::string warm;
    inner_->SaveState(&warm);
    EXPECT_TRUE(warm == bytes) << "warm save, cut " << cut;
    const auto cold = factory_(population_, rng_);
    EXPECT_TRUE(cold->RestoreState(bytes)) << "cut " << cut;
    std::string cold_bytes;
    cold->SaveState(&cold_bytes);
    EXPECT_TRUE(cold_bytes == bytes) << "restored save, cut " << cut;
    if (cut >= checks_->first_twin_save) {
      std::string twin_bytes;
      twin_->SaveState(&twin_bytes);
      EXPECT_TRUE(twin_bytes == bytes)
          << "twin save, cut " << cut << ", twin's first save at cut "
          << checks_->first_twin_save;
    }
  }

 private:
  std::unique_ptr<sim::Protocol> twin_;
  sim::ProtocolFactory factory_;
  std::span<const TagId> population_;
  Pcg32 rng_;
  SaveChecks* checks_;
};

// For every checkpointable protocol, a churning smoke soak that cuts a
// checkpoint every 200 slots, run once per cut so the twin's cold save
// lands on each cut in turn.
TEST(EncodeCache, WarmAndColdSavesAgree) {
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  config.epoch_slots = 200;  // a cut every 200 slots
  SoakOptions options;
  options.n_initial = 20;
  options.runs = 1;
  options.base_seed = 11;
  const std::string ckpt_path = TempPath("encode_cache.ckpt");
  for (const ResumeCase& c : CheckpointableFactories()) {
    std::uint64_t cuts = 1;
    for (std::uint64_t first = 0; first < cuts; ++first) {
      SCOPED_TRACE(std::string(c.label) + " twin's first save at cut " +
                   std::to_string(first));
      SaveChecks checks;
      checks.first_twin_save = first;
      const sim::ProtocolFactory wrapped =
          [&](std::span<const TagId> population, Pcg32 rng) {
            return std::unique_ptr<sim::Protocol>(
                std::make_unique<SaveChecker>(c.factory, population, rng,
                                              &checks));
          };
      ResumableOptions opts;
      opts.checkpoint_every_epochs = 1;
      opts.checkpoint_path = ckpt_path;
      const SloReport report =
          RunSoakResumable(wrapped, config, options, 0, nullptr, opts);
      EXPECT_TRUE(report.churn_supported);
      if (first == 0) {
        cuts = checks.saves;
        EXPECT_GE(cuts, 12u);
        if (std::string_view(c.label) == "fcat2") {
          // Large enough that every arena spans several cache chunks.
          EXPECT_GT(checks.largest, 100'000u);
        }
      }
      EXPECT_EQ(checks.saves, cuts);
    }
  }
  std::remove(ckpt_path.c_str());
}

// Restoring an instance whose cache holds a later state must not reuse
// that state's encoding: the save after the restore is the restored
// bytes.
TEST(EncodeCache, RestoreDropsTheCache) {
  Pcg32 pop_rng(5, 8);
  const auto population = sim::MakePopulation(3000, pop_rng);
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const auto protocol =
      core::MakeFcatFactory(fcat)(population, Pcg32(5, 9));
  const auto step = [&](int slots) {
    for (int i = 0; i < slots && !protocol->Finished(); ++i) protocol->Step();
  };
  step(2500);
  std::string early;
  protocol->SaveState(&early);
  step(2500);
  ASSERT_FALSE(protocol->Finished());
  std::string late;
  protocol->SaveState(&late);
  ASSERT_GT(late.size(), early.size());
  ASSERT_TRUE(protocol->RestoreState(early));
  std::string again;
  protocol->SaveState(&again);
  EXPECT_TRUE(again == early);
}

using testing_blob::Field;
using testing_blob::NextVarint;
using testing_blob::Patch;
using testing_blob::ValueAt;

// The varints of an FCAT-2 protocol blob (EngineProtocol<IdealPhy>: the
// phy blob, then the engine blob) that a restore must check, located by
// walking the layout SaveState writes. Each names the first row of its
// arena unless noted.
struct FcatFields {
  // IdealPhy.
  Field phy_offset, phy_count, phy_tag, phy_open;
  std::uint64_t phy_arena = 0;
  // Engine.
  Field active_tag, active_pos;
  std::uint64_t n_active = 0, n_tags = 0;
  // Its RecordTracker.
  Field n_records, knowns_offset, knowns_len, knowns_cap;
  Field knowns_offset2;  // the second record's
  Field node_record, node_next;  // node_next: the first non-kNil link
  Field head, tail;              // the first tag with a chain
  Field open;
  std::uint64_t records = 0, knowns = 0, nodes = 0;
};

FcatFields WalkFcat(std::string_view phy, std::string_view engine) {
  constexpr std::uint64_t kNil = 0xFFFFFFFFu;
  FcatFields f;
  Pcg32 rng;
  ser::Reader p{phy};
  EXPECT_TRUE(ReadPcg32(p, rng));
  const std::uint64_t phy_records = p.Varint();
  for (std::uint64_t i = 0; i < phy_records; ++i) {
    const Field offset = NextVarint(p);
    const Field count = NextVarint(p);
    p.Bool();  // open
    p.Bool();  // doomed
    if (i == 0) {
      f.phy_offset = offset;
      f.phy_count = count;
    }
  }
  f.phy_arena = p.Varint();
  for (std::uint64_t i = 0; i < f.phy_arena; ++i) {
    const Field tag = NextVarint(p);
    if (i == 0) f.phy_tag = tag;
  }
  f.phy_open = NextVarint(p);
  EXPECT_TRUE(p.ok && p.AtEnd());

  ser::Reader e{engine};
  EXPECT_TRUE(ReadPcg32(e, rng));
  f.n_active = e.Varint();
  for (std::uint64_t i = 0; i < f.n_active; ++i) {
    const Field tag = NextVarint(e);
    if (i == 0) f.active_tag = tag;
  }
  f.n_tags = e.Varint();
  for (std::uint64_t i = 0; i < f.n_tags; ++i) {
    const Field pos = NextVarint(e);
    if (i == 0) f.active_pos = pos;
  }
  e.Varint();  // read_ count
  for (std::uint64_t i = 0; i < 2 * f.n_tags; ++i) e.Bool();  // read, present
  f.n_records = NextVarint(e);
  f.records = ValueAt(engine, f.n_records);
  for (std::uint64_t i = 0; i < f.records; ++i) {
    const Field offset = NextVarint(e);
    const Field len = NextVarint(e);
    const Field cap = NextVarint(e);
    e.Bool();  // open
    if (i == 0) {
      f.knowns_offset = offset;
      f.knowns_len = len;
      f.knowns_cap = cap;
    }
    if (i == 1) f.knowns_offset2 = offset;
  }
  f.knowns = e.Varint();
  for (std::uint64_t i = 0; i < f.knowns; ++i) e.Varint();
  f.nodes = e.Varint();
  for (std::uint64_t i = 0; i < f.nodes; ++i) {
    const Field record = NextVarint(e);
    const Field next = NextVarint(e);
    if (i == 0) f.node_record = record;
    if (f.node_next.len == 0 && ValueAt(engine, next) != kNil) {
      f.node_next = next;
    }
  }
  EXPECT_EQ(e.Varint(), f.n_tags);
  for (Field* end : {&f.head, &f.tail}) {
    for (std::uint64_t i = 0; i < f.n_tags; ++i) {
      const Field v = NextVarint(e);
      if (end->len == 0 && ValueAt(engine, v) != kNil) *end = v;
    }
  }
  f.open = NextVarint(e);
  EXPECT_TRUE(e.ok);
  return f;
}

// A checkpoint whose CRC is valid can still carry an FCAT-2 blob whose
// indices run past the phy's or the tracker's arenas or the universe:
// PushKnown would write past knowns_arena_, ResolveOne read past the
// participant arena and the population. Each blob below patches one
// varint of a real mid-soak blob; the resume must refuse it.
TEST(FcatCheckpoint, RestoreRejectsPatchedBlobs) {
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const sim::ProtocolFactory factory = core::MakeFcatFactory(fcat);
  ServiceConfig config;
  ASSERT_TRUE(LookupServiceProfile("smoke", &config));
  SoakOptions options;
  options.n_initial = 20;
  options.runs = 1;
  options.base_seed = 11;
  const std::string ckpt_path = TempPath("fcat_patch.ckpt");
  ResumableOptions kill_opts;
  kill_opts.checkpoint_every_epochs = 1;
  kill_opts.checkpoint_path = ckpt_path;
  kill_opts.abort_before_slot = 1100;
  bool aborted = false;
  (void)RunSoakResumable(factory, config, options, 0, nullptr, kill_opts,
                         &aborted);
  ASSERT_TRUE(aborted);
  ServiceCheckpoint ckpt;
  ASSERT_EQ(ReadCheckpointFile(ckpt_path, &ckpt), "");
  std::remove(ckpt_path.c_str());
  ser::Reader outer{ckpt.protocol_blob};
  const std::string phy(outer.Bytes());
  const std::string engine(outer.Bytes());
  ASSERT_TRUE(outer.ok && outer.AtEnd());
  const FcatFields f = WalkFcat(phy, engine);
  ASSERT_GT(f.phy_arena, 0u);
  ASSERT_GT(f.n_active, 0u);
  ASSERT_GT(f.node_next.len, 0u);
  ASSERT_GT(f.tail.len, 0u);
  ASSERT_GT(ValueAt(engine, f.knowns_cap), 0u);
  ASSERT_GT(f.records, 1u);

  const std::string patched_path = TempPath("fcat_patched.ckpt");
  const auto resume = [&](const std::string& phy_blob,
                          const std::string& engine_blob) {
    ServiceCheckpoint patched = ckpt;
    patched.protocol_blob.clear();
    ser::PutBytes(patched.protocol_blob, phy_blob);
    ser::PutBytes(patched.protocol_blob, engine_blob);
    EXPECT_EQ(WriteCheckpointFile(patched_path, patched), "");
    SloReport report;
    const std::string err = ResumeSoak(factory, config, options, 0,
                                       patched_path, "", {}, {}, &report);
    std::remove(patched_path.c_str());
    return err;
  };
  ASSERT_EQ(resume(phy, engine), "");

  const std::string rejected = "checkpoint: protocol state rejected";
  const auto value = [&](const std::string& blob, Field field) {
    return ValueAt(blob, field);
  };
  // IdealPhy: a record slice past the arena, a participant outside the
  // population, an open count that disagrees with the rows.
  EXPECT_EQ(resume(Patch(phy, f.phy_offset, f.phy_arena), engine), rejected);
  EXPECT_EQ(resume(Patch(phy, f.phy_count, f.phy_arena + 1), engine),
            rejected);
  EXPECT_EQ(resume(Patch(phy, f.phy_tag, f.n_tags), engine), rejected);
  EXPECT_EQ(resume(Patch(phy, f.phy_open, value(phy, f.phy_open) + 1), engine),
            rejected);
  // Engine: an unread tag outside the universe, an inverse position that
  // does not invert the list.
  EXPECT_EQ(resume(phy, Patch(engine, f.active_tag, f.n_tags)), rejected);
  EXPECT_EQ(resume(phy, Patch(engine, f.active_pos, f.n_active)), rejected);
  // RecordTracker: a record count larger than the blob, a known slice
  // past the arena, longer than its capacity or overlapping the previous
  // record's, a chain node naming a missing record or node, a cut chain,
  // chain ends past the node pool, an open count that disagrees with the
  // rows.
  EXPECT_EQ(resume(phy, Patch(engine, f.n_records, std::uint64_t{1} << 40)),
            rejected);
  EXPECT_EQ(resume(phy, Patch(engine, f.knowns_offset, f.knowns)), rejected);
  EXPECT_EQ(resume(phy, Patch(engine, f.knowns_len,
                              value(engine, f.knowns_cap) + 1)),
            rejected);
  EXPECT_EQ(resume(phy, Patch(engine, f.knowns_cap, f.knowns + 1)), rejected);
  EXPECT_EQ(resume(phy, Patch(engine, f.knowns_offset2,
                              value(engine, f.knowns_offset))),
            rejected);
  EXPECT_EQ(resume(phy, Patch(engine, f.node_record, f.records)), rejected);
  EXPECT_EQ(resume(phy, Patch(engine, f.node_next, f.nodes)), rejected);
  EXPECT_EQ(resume(phy, Patch(engine, f.node_next, 0xFFFFFFFFu)), rejected);
  EXPECT_EQ(resume(phy, Patch(engine, f.head, f.nodes)), rejected);
  EXPECT_EQ(resume(phy, Patch(engine, f.tail, f.nodes)), rejected);
  EXPECT_EQ(resume(phy, Patch(engine, f.open, value(engine, f.open) + 1)),
            rejected);
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
