// Torn-tail recovery (store::RecoverStoreFile) and OpenFailure
// classification, including the committed kill-matrix fixtures under
// tests/golden/ — the same files the CI crash-recovery job feeds
// through `trace_inspect recover` — and the writer-snapshot restore
// (StoreWriter::RestoreOpen) against patched snapshots.
#include "store/container.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "blob_patch.h"
#include "core/factories.h"
#include "file_bytes.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "trace/binary.h"

namespace anc::store {
namespace {

using testing_blob::Field;
using testing_blob::NextVarint;
using testing_blob::Patch;
using testing_blob::ValueAt;
using testing_files::Slurp;
using testing_files::Spit;

trace::TraceFile RecordSoak(std::size_t runs, std::uint64_t base_seed = 1,
                            std::size_t n_initial = 30) {
  service::ServiceConfig config;
  EXPECT_TRUE(service::LookupServiceProfile("smoke", &config));
  core::FcatOptions options;
  options.lambda = 2;
  service::SoakOptions so;
  so.n_initial = n_initial;
  so.runs = runs;
  so.base_seed = base_seed;
  trace::MemorySink recorded;
  so.trace = &recorded;
  service::RunSoakExperiment(core::MakeFcatFactory(options), config, so);
  return recorded.TakeFile();
}

std::string TempPath(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string Enc(const trace::TraceEvent& e) {
  std::string s;
  trace::EncodeEvent(s, e);
  return s;
}

// Full decode of every salvaged event, CRC-verified block by block.
std::vector<trace::TraceEvent> ReadAllEvents(const std::string& path,
                                             StoreReader* reader) {
  EXPECT_EQ(reader->Open(path), "");
  std::vector<trace::TraceEvent> all;
  for (std::size_t b = 0; b < reader->blocks().size(); ++b) {
    std::vector<trace::TraceEvent> events;
    EXPECT_EQ(reader->ReadBlock(b, &events), "") << "block " << b;
    all.insert(all.end(), events.begin(), events.end());
  }
  return all;
}

// Truncating a finished store anywhere in its data region yields a
// kTornTail classification and a recoverable file whose salvaged
// events are an exact prefix of the original stream.
TEST(Recover, SalvagesCleanPrefixFromTornTail) {
  const trace::TraceFile file = RecordSoak(2);
  const std::string path = TempPath("recover_full.ancs");
  StoreWriterOptions options;
  options.block_events = 256;  // many small blocks to cut between
  ASSERT_EQ(WriteStoreFile(path, file, options), "");
  const std::string full = Slurp(path);

  StoreReader full_reader;
  const std::vector<trace::TraceEvent> original =
      ReadAllEvents(path, &full_reader);
  ASSERT_GT(full_reader.blocks().size(), 4u);

  const std::string torn = TempPath("recover_torn.ancs");
  const std::string recovered = TempPath("recover_out.ancs");
  // A spread of cuts: mid-data, late (likely inside the footer), and a
  // couple of odd offsets that land mid-block.
  for (const std::size_t keep :
       {full.size() / 3, full.size() / 2, full.size() - 9,
        full.size() * 2 / 3 + 1}) {
    SCOPED_TRACE("keep " + std::to_string(keep) + " of " +
                 std::to_string(full.size()));
    Spit(torn, full.substr(0, keep));

    StoreReader torn_reader;
    EXPECT_NE(torn_reader.Open(torn), "");
    EXPECT_EQ(torn_reader.open_failure(), OpenFailure::kTornTail);

    RecoverInfo info;
    ASSERT_EQ(RecoverStoreFile(torn, recovered, &info), "");
    EXPECT_EQ(info.salvaged_bytes + info.discarded_bytes, keep);

    StoreReader rec_reader;
    const std::vector<trace::TraceEvent> salvaged =
        ReadAllEvents(recovered, &rec_reader);
    EXPECT_EQ(rec_reader.open_failure(), OpenFailure::kNone);
    EXPECT_EQ(salvaged.size(), info.salvaged_events);
    ASSERT_LE(salvaged.size(), original.size());
    for (std::size_t i = 0; i < salvaged.size(); ++i) {
      ASSERT_EQ(Enc(salvaged[i]), Enc(original[i]))
          << "event " << i;
    }
  }
  std::remove(path.c_str());
  std::remove(torn.c_str());
  std::remove(recovered.c_str());
}

// Corruption (not truncation) must fail closed in both the reader and
// the recovery scan: salvage never launders flipped bits.
TEST(Recover, FailsClosedOnCorruptInterior) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("recover_corrupt.ancs");
  StoreWriterOptions options;
  options.block_events = 256;
  ASSERT_EQ(WriteStoreFile(path, file, options), "");
  std::string bytes = Slurp(path);

  // A flipped footer byte (the 20-byte trailer sits behind it) is a
  // present-but-invalid index: kCorrupt, not torn.
  std::string bad_footer = bytes;
  bad_footer[bad_footer.size() - 25] =
      static_cast<char>(bad_footer[bad_footer.size() - 25] ^ 0x20);
  Spit(path, bad_footer);
  StoreReader footer_reader;
  EXPECT_NE(footer_reader.Open(path), "");
  EXPECT_EQ(footer_reader.open_failure(), OpenFailure::kCorrupt);

  // A flipped data-region byte: Open() succeeds (block payloads decode
  // lazily) but the damaged block must fail its CRC on read — flipped
  // bits never decode into events.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 3] =
      static_cast<char>(corrupt[corrupt.size() / 3] ^ 0x20);
  Spit(path, corrupt);
  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");
  bool some_block_failed = false;
  for (std::size_t b = 0; b < reader.blocks().size(); ++b) {
    std::vector<trace::TraceEvent> events;
    if (!reader.ReadBlock(b, &events).empty()) some_block_failed = true;
  }
  EXPECT_TRUE(some_block_failed);

  // Recovery on a torn version of the corrupt file: the flipped block
  // payload is fully present, so the scan must reject it rather than
  // salvage around it.
  const std::string torn = TempPath("recover_corrupt_torn.ancs");
  const std::string out = TempPath("recover_corrupt_out.ancs");
  Spit(torn, corrupt.substr(0, corrupt.size() - 12));
  RecoverInfo info;
  EXPECT_NE(RecoverStoreFile(torn, out, &info), "");

  std::remove(path.c_str());
  std::remove(torn.c_str());
  std::remove(out.c_str());
}

// A finished store round-trips through recovery unchanged.
TEST(Recover, FinishedFileRoundTripsUnchanged) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("recover_noop.ancs");
  ASSERT_EQ(WriteStoreFile(path, file, {}), "");
  const std::string out = TempPath("recover_noop_out.ancs");
  RecoverInfo info;
  ASSERT_EQ(RecoverStoreFile(path, out, &info), "");
  EXPECT_TRUE(info.had_footer);
  EXPECT_FALSE(info.tail_torn);
  EXPECT_EQ(Slurp(out), Slurp(path));
  std::remove(path.c_str());
  std::remove(out.c_str());
}

// The committed kill-matrix fixtures (tools/make_crash_fixtures): a
// soak killed between block writes and one killed mid-block. Every
// committed fixture must classify as torn — never corrupt — and
// salvage a readable prefix.
TEST(Recover, GoldenKillMatrixFixturesSalvage) {
  struct Fixture {
    const char* name;
    bool tail_torn;  // expected: cut mid-segment vs at a boundary
  };
  for (const Fixture& fx :
       {Fixture{"soak_kill_boundary.ancs", false},
        Fixture{"soak_kill_block.ancs", true}}) {
    SCOPED_TRACE(fx.name);
    const std::string path = std::string(ANC_GOLDEN_DIR) + "/" + fx.name;

    StoreReader torn_reader;
    EXPECT_NE(torn_reader.Open(path), "");
    EXPECT_EQ(torn_reader.open_failure(), OpenFailure::kTornTail);

    const std::string out = TempPath("recover_golden_out.ancs");
    RecoverInfo info;
    ASSERT_EQ(RecoverStoreFile(path, out, &info), "");
    EXPECT_EQ(info.store_version, 2u);
    EXPECT_GT(info.salvaged_blocks, 0u);
    EXPECT_GT(info.salvaged_events, 0u);
    EXPECT_EQ(info.tail_torn, fx.tail_torn);
    EXPECT_FALSE(info.had_footer);

    StoreReader rec_reader;
    const std::vector<trace::TraceEvent> events =
        ReadAllEvents(out, &rec_reader);
    EXPECT_EQ(events.size(), info.salvaged_events);
    ASSERT_EQ(rec_reader.runs().size(), 1u);
    EXPECT_EQ(rec_reader.runs()[0].n_events, info.salvaged_events);
    std::remove(out.c_str());
  }
}

// The mid-block fixture is a strict prefix of the boundary fixture, so
// its salvage must be a prefix of the boundary fixture's salvage —
// recovery is monotone in how much of the file survived.
TEST(Recover, GoldenFixtureSalvagesNest) {
  const std::string dir = std::string(ANC_GOLDEN_DIR);
  const std::string out_boundary = TempPath("recover_nest_boundary.ancs");
  const std::string out_block = TempPath("recover_nest_block.ancs");
  RecoverInfo boundary_info, block_info;
  ASSERT_EQ(RecoverStoreFile(dir + "/soak_kill_boundary.ancs", out_boundary,
                             &boundary_info),
            "");
  ASSERT_EQ(RecoverStoreFile(dir + "/soak_kill_block.ancs", out_block,
                             &block_info),
            "");
  EXPECT_LT(block_info.salvaged_events, boundary_info.salvaged_events);

  StoreReader boundary_reader, block_reader;
  const std::vector<trace::TraceEvent> boundary_events =
      ReadAllEvents(out_boundary, &boundary_reader);
  const std::vector<trace::TraceEvent> block_events =
      ReadAllEvents(out_block, &block_reader);
  ASSERT_LT(block_events.size(), boundary_events.size());
  for (std::size_t i = 0; i < block_events.size(); ++i) {
    ASSERT_EQ(Enc(block_events[i]), Enc(boundary_events[i]))
        << "event " << i;
  }
  std::remove(out_boundary.c_str());
  std::remove(out_block.c_str());
}

// "Kill during checkpoint write": the committed torn checkpoint must be
// rejected fail-closed, while the committed intact checkpoint decodes.
TEST(Recover, GoldenTornCheckpointFailsClosed) {
  service::ServiceCheckpoint ckpt;
  EXPECT_NE(service::ReadCheckpointFile(
                std::string(ANC_GOLDEN_DIR) + "/soak_kill_ckpt.ckpt", &ckpt),
            "");
  EXPECT_EQ(service::ReadCheckpointFile(
                std::string(ANC_GOLDEN_DIR) + "/soak_resume.ckpt", &ckpt),
            "");
}

// Non-store inputs classify as kNotAStore / kIo, not as torn.
TEST(Recover, ClassifiesNonStoreInputs) {
  StoreReader reader;
  EXPECT_NE(reader.Open(TempPath("recover_missing.ancs")), "");
  EXPECT_EQ(reader.open_failure(), OpenFailure::kIo);

  const std::string junk = TempPath("recover_junk.ancs");
  Spit(junk, "definitely not a store file, but long enough to read");
  StoreReader junk_reader;
  EXPECT_NE(junk_reader.Open(junk), "");
  EXPECT_EQ(junk_reader.open_failure(), OpenFailure::kNotAStore);

  const std::string out = TempPath("recover_junk_out.ancs");
  RecoverInfo info;
  EXPECT_NE(RecoverStoreFile(junk, out, &info), "");
  std::remove(junk.c_str());
  std::remove(out.c_str());
}

// fopen() of a directory succeeds on Linux and the first fread() fails
// (EISDIR): that is a read error, not a short or foreign file.
TEST(Recover, ReadErrorIsNotAShortFile) {
  const std::string dir = TempPath("recover_dir.ancs");
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  const std::string out = TempPath("recover_dir_out.ancs");
  RecoverInfo info;
  EXPECT_EQ(RecoverStoreFile(dir, out, &info), "read error on " + dir);
  EXPECT_FALSE(std::filesystem::exists(out));

  StoreReader reader;
  EXPECT_EQ(reader.Open(dir), "read error on " + dir);
  EXPECT_EQ(reader.open_failure(), OpenFailure::kIo);
  std::filesystem::remove(dir);
}

// The varints of a StoreWriter::SaveState snapshot that the restore
// must check against each other, found by walking its layout: the saved
// offset, the run count and each run's block range, the block count and
// each block's run, offset and stored length.
struct WriterSnapshot {
  struct Run {
    Field first_block, n_blocks;
  };
  struct Block {
    Field run_ordinal, offset, comp_len;
  };
  Field offset, n_runs, n_blocks;
  std::vector<Run> runs;
  std::vector<Block> blocks;
  std::size_t index_end = 0;  // where n_buffered starts
};

WriterSnapshot WalkSnapshot(std::string_view blob) {
  WriterSnapshot w;
  ser::Reader r{blob};
  w.offset = NextVarint(r);
  NextVarint(r);  // events_in_run
  r.Byte();       // run_open
  for (int c = 0; c < 5; ++c) NextVarint(r);  // the run counters
  w.n_runs = NextVarint(r);
  for (std::uint64_t i = 0; i < ValueAt(blob, w.n_runs); ++i) {
    trace::RunHeader header;
    EXPECT_TRUE(trace::GetRunHeader(r, &header));
    NextVarint(r);  // n_events
    const Field first_block = NextVarint(r);
    w.runs.push_back({first_block, NextVarint(r)});
  }
  w.n_blocks = NextVarint(r);
  for (std::uint64_t i = 0; i < ValueAt(blob, w.n_blocks); ++i) {
    WriterSnapshot::Block b;
    b.run_ordinal = NextVarint(r);
    b.offset = NextVarint(r);
    NextVarint(r);  // raw_len
    b.comp_len = NextVarint(r);
    for (int f = 0; f < 12; ++f) NextVarint(r);  // crc32 .. the counters
    w.blocks.push_back(b);
  }
  w.index_end = r.pos;
  EXPECT_TRUE(r.ok);
  return w;
}

// A real mid-run snapshot (second run open, a partial block buffered)
// restores and finishes byte-identically; each patch that makes its index
// disagree with itself or with the saved offset is rejected before the
// writer touches the file.
TEST(StoreWriterRestore, RejectsPatchedSnapshots) {
  const trace::TraceFile file = RecordSoak(2);
  ASSERT_EQ(file.runs.size(), 2u);
  const std::vector<trace::TraceEvent>& second = file.runs[1].events;
  const std::size_t cut = second.size() / 2 + 7;
  StoreWriterOptions options;
  options.block_events = 128;
  const auto add_rest = [&](StoreWriter& writer) {
    for (std::size_t i = cut; i < second.size(); ++i) writer.Add(second[i]);
  };

  const std::string path = TempPath("writer_restore.ancs");
  std::string blob;
  {
    StoreWriter writer;
    ASSERT_EQ(writer.Open(path, options), "");
    for (const trace::RunTrace& run : file.runs) {
      writer.BeginRun(run.header);
      const std::size_t n = &run == &file.runs[1] ? cut : run.events.size();
      for (std::size_t i = 0; i < n; ++i) writer.Add(run.events[i]);
    }
    ASSERT_GT(writer.blocks().size(), 2u);
    writer.SaveState(&blob);
    add_rest(writer);
    ASSERT_EQ(writer.Finish(), "");
  }
  const std::string finished = Slurp(path);

  // The unpatched snapshot resumes over the finished file (truncated back
  // to the saved offset) and rewrites it exactly.
  const std::string resumed = TempPath("writer_restore_resumed.ancs");
  Spit(resumed, finished);
  {
    StoreWriter writer;
    ASSERT_EQ(writer.RestoreOpen(resumed, blob, options), "");
    add_rest(writer);
    ASSERT_EQ(writer.Finish(), "");
  }
  EXPECT_TRUE(Slurp(resumed) == finished);

  const WriterSnapshot w = WalkSnapshot(blob);
  ASSERT_EQ(w.runs.size(), 2u);
  const std::uint64_t saved = ValueAt(blob, w.offset);
  const std::uint64_t n_blocks = w.blocks.size();
  std::string no_runs = blob.substr(0, w.n_runs.pos);
  ser::PutVarint(no_runs, 0);  // runs
  ser::PutVarint(no_runs, 0);  // blocks
  no_runs += blob.substr(w.index_end);
  const struct {
    const char* what;
    std::string blob;
  } patched[] = {
      {"run open with no runs", no_runs},
      {"block offset past the saved offset",
       Patch(blob, w.blocks.back().offset, saved)},
      {"block length past the saved offset",
       Patch(blob, w.blocks.back().comp_len, saved)},
      {"run_ordinal past the runs",
       Patch(blob, w.blocks.front().run_ordinal, w.runs.size())},
      {"open run's block range past the blocks",
       Patch(blob, w.runs.back().first_block, n_blocks + 1)},
      {"closed run's block range past the blocks",
       Patch(blob, w.runs.front().n_blocks, n_blocks + 1)},
  };
  for (const auto& p : patched) {
    SCOPED_TRACE(p.what);
    Spit(resumed, finished);
    StoreWriter writer;
    EXPECT_NE(writer.RestoreOpen(resumed, p.blob, options), "");
    // A rejected snapshot leaves the file as it was.
    EXPECT_TRUE(Slurp(resumed) == finished);
  }
  std::remove(path.c_str());
  std::remove(resumed.c_str());
}

}  // namespace
}  // namespace anc::store
