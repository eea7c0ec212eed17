// Tests for the ANCSTORE container (src/store): LZ codec round-trips,
// byte-identical store round-trips, O(log n) seek correctness, the
// adversarial fail-closed paths (truncation, bit flips, out-of-bounds
// index entries), legacy v1 reads, index-backed queries against full
// decodes, and the seqlock snapshot log under concurrent readers.
#include "store/container.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unistd.h>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/factories.h"
#include "file_bytes.h"
#include "service/replay.h"
#include "service/service.h"
#include "store/crc32.h"
#include "store/lz.h"
#include "store/query.h"
#include "store/snapshot.h"
#include "trace/binary.h"
#include "trace/diff.h"

namespace anc::store {
namespace {

using testing_files::Slurp;
using testing_files::Spit;

// Records a deterministic FCAT-2 soak (service smoke profile) — churny
// enough to exercise every event kind the store indexes (arrive/depart/
// detect/epoch), unlike a closed inventory run.
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

// ------------------------------------------------------------ CRC-32 --

// The textbook bytewise loop, kept here as the reference the slice-by-8
// implementation must match value for value.
std::uint32_t BytewiseCrc32(std::string_view bytes, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndOffset) {
  Pcg32 rng(11);
  std::string buf(1024 + 8, '\0');
  for (char& ch : buf) ch = static_cast<char>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::string_view view(buf.data() + offset, len);
      ASSERT_EQ(Crc32(view), BytewiseCrc32(view))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, SeedChains) {
  Pcg32 rng(12);
  std::string bytes(300, '\0');
  for (char& ch : bytes) ch = static_cast<char>(rng());
  const std::string_view all(bytes);
  for (std::size_t cut : {0u, 1u, 7u, 8u, 9u, 150u, 299u, 300u}) {
    const std::string_view a = all.substr(0, cut);
    const std::string_view b = all.substr(cut);
    EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(all)) << "cut " << cut;
    EXPECT_EQ(Crc32(b, Crc32(a)), BytewiseCrc32(b, BytewiseCrc32(a)));
  }
}

// ---------------------------------------------------------------- LZ --

TEST(Lz, RoundTripsAssortedInputs) {
  std::vector<std::string> inputs = {
      "",
      "a",
      "abc",
      std::string(100000, 'x'),
      "abcdabcdabcdabcdabcdabcdabcd",
  };
  // Deterministic pseudo-random bytes: the incompressible case.
  std::string noise;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 50000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    noise.push_back(static_cast<char>(state >> 56));
  }
  inputs.push_back(noise);
  // Long-range repetition: matches far beyond one 64k window must still
  // decode (the compressor just will not reference them).
  std::string far = noise + std::string(70000, 'q') + noise;
  inputs.push_back(far);

  for (const std::string& raw : inputs) {
    const std::string comp = LzCompress(raw);
    std::string back;
    ASSERT_EQ(LzDecompress(comp, raw.size(), &back), "")
        << "raw size " << raw.size();
    EXPECT_EQ(back, raw) << "raw size " << raw.size();
  }
}

TEST(Lz, CompressesRepetitiveInput) {
  const std::string raw(100000, 'x');
  EXPECT_LT(LzCompress(raw).size(), raw.size() / 50);
}

TEST(Lz, DecompressFailsClosed) {
  const std::string raw = "the quick brown fox jumps over the lazy dog "
                          "the quick brown fox jumps over the lazy dog";
  const std::string comp = LzCompress(raw);
  std::string out;
  // Truncated stream: must error, or — when the cut only drops the
  // empty final-literal token — still decode the exact original bytes.
  // What it must never do is hand back raw_len bytes that differ.
  for (std::size_t cut = 0; cut < comp.size(); ++cut) {
    const std::string err =
        LzDecompress(comp.substr(0, cut), raw.size(), &out);
    if (err.empty()) {
      EXPECT_EQ(out, raw) << "cut at " << cut;
    }
  }
  EXPECT_NE(LzDecompress(comp.substr(0, comp.size() / 2), raw.size(), &out),
            "");
  // Wrong declared length, both directions.
  EXPECT_NE(LzDecompress(comp, raw.size() + 1, &out), "");
  EXPECT_NE(LzDecompress(comp, raw.size() - 1, &out), "");
  // Every single-byte corruption either errors or mis-decodes — it must
  // never crash or over-run. (CRC catches silent mis-decodes upstream.)
  for (std::size_t i = 0; i < comp.size(); ++i) {
    std::string bad = comp;
    bad[i] = static_cast<char>(bad[i] ^ 0xff);
    (void)LzDecompress(bad, raw.size(), &out);
  }
}

// ---------------------------------------------------- container I/O --

TEST(StoreContainer, RoundTripIsByteIdentical) {
  const trace::TraceFile file = RecordSoak(2);
  ASSERT_EQ(file.runs.size(), 2u);
  const std::string path = TempPath("anc_store_roundtrip.ancstore");

  StoreWriterOptions options;
  options.block_events = 512;  // force multiple blocks per run
  ASSERT_EQ(WriteStoreFile(path, file, options), "");

  trace::TraceFile back;
  ASSERT_EQ(ReadStoreFile(path, &back), "");
  EXPECT_EQ(trace::EncodeTrace(back), trace::EncodeTrace(file));

  // And it actually compressed.
  const std::string raw = trace::EncodeTrace(file);
  EXPECT_LT(Slurp(path).size(), raw.size());
  std::remove(path.c_str());
}

TEST(StoreContainer, UncompressedOptionRoundTrips) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_store_rawblocks.ancstore");
  StoreWriterOptions options;
  options.compress = false;
  ASSERT_EQ(WriteStoreFile(path, file, options), "");

  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");
  for (const BlockMeta& b : reader.blocks()) {
    EXPECT_EQ(b.comp_len, b.raw_len);
  }
  trace::TraceFile back;
  ASSERT_EQ(reader.ReadAll(&back), "");
  EXPECT_EQ(trace::EncodeTrace(back), trace::EncodeTrace(file));
  std::remove(path.c_str());
}

TEST(StoreContainer, LegacyV1ReadsByteIdentically) {
  const trace::TraceFile file = RecordSoak(2);
  const std::string path = TempPath("anc_store_legacy.trace");
  Spit(path, trace::EncodeTrace(file));

  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");
  EXPECT_TRUE(reader.legacy());
  EXPECT_EQ(reader.runs().size(), 2u);
  trace::TraceFile back;
  ASSERT_EQ(reader.ReadAll(&back), "");
  EXPECT_EQ(trace::EncodeTrace(back), trace::EncodeTrace(file));
  std::remove(path.c_str());
}

// A v1 file is indexed at open and then read block by block from the
// file, as a store is: a byte that changes under an open reader fails
// that pseudo-block's CRC instead of being decoded.
TEST(StoreContainer, LegacyV1ChangedAfterOpenFailsCrc) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_store_legacy_changed.trace");
  Spit(path, trace::EncodeTrace(file));
  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");
  ASSERT_TRUE(reader.legacy());
  ASSERT_FALSE(reader.blocks().empty());
  std::vector<trace::TraceEvent> events;
  ASSERT_EQ(reader.ReadBlock(0, &events), "");

  const BlockMeta& b = reader.blocks()[0];
  std::string bytes = Slurp(path);
  bytes[b.offset + b.comp_len / 2] ^= 0x01;
  Spit(path, bytes);
  const std::string err = reader.ReadBlock(0, &events);
  EXPECT_NE(err.find("CRC"), std::string::npos) << err;
  EXPECT_TRUE(events.empty());
  std::remove(path.c_str());
}

TEST(StoreContainer, SeekFindsEveryFrame) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_store_seek.ancstore");
  StoreWriterOptions options;
  options.block_events = 256;  // many blocks: exercise the binary search
  ASSERT_EQ(WriteStoreFile(path, file, options), "");

  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");
  ASSERT_GT(reader.blocks().size(), 4u);

  std::uint64_t max_frame = 0;
  for (const BlockMeta& b : reader.blocks()) {
    if (b.max_frame > max_frame) max_frame = b.max_frame;
  }
  std::vector<trace::TraceEvent> events;
  for (std::uint64_t frame = 0; frame <= max_frame; ++frame) {
    const std::size_t block = reader.FindBlockForFrame(0, frame);
    ASSERT_NE(block, kNoBlock) << "frame " << frame;
    // The index must point at the first block whose coverage can hold
    // the frame: every earlier block tops out below it.
    for (std::size_t b = reader.runs()[0].first_block; b < block; ++b) {
      EXPECT_LT(reader.blocks()[b].max_frame, frame);
    }
    EXPECT_GE(reader.blocks()[block].max_frame, frame);
    ASSERT_EQ(reader.ReadBlock(block, &events), "");
  }
  EXPECT_EQ(reader.FindBlockForFrame(0, max_frame + 1), kNoBlock);
  std::remove(path.c_str());
}

// ------------------------------------------------------- adversarial --

struct CorruptionCase {
  const trace::TraceFile file = RecordSoak(1);
  // Process-unique path: gtest_discover_tests runs each adversarial
  // test as its own ctest entry, and a parallel ctest would otherwise
  // have them corrupting one shared file mid-test.
  std::string path = TempPath(("anc_store_adversarial_" +
                               std::to_string(::getpid()) + ".ancstore")
                                  .c_str());
  std::string bytes;

  CorruptionCase() {
    StoreWriterOptions options;
    options.block_events = 512;
    EXPECT_EQ(WriteStoreFile(path, file, options), "");
    bytes = Slurp(path);
    EXPECT_GT(bytes.size(), 40u);
  }
  ~CorruptionCase() { std::remove(path.c_str()); }

  std::uint64_t FooterOffset() const {
    ser::Reader trailer{std::string_view(bytes).substr(bytes.size() - 20)};
    return trailer.U64Le();
  }
};

TEST(StoreContainer, MidBlockTruncationIsRejected) {
  CorruptionCase c;
  // Cut inside the data region (past the header, before the footer):
  // the trailer magic disappears, so Open must fail outright.
  const std::uint64_t footer = c.FooterOffset();
  Spit(c.path, c.bytes.substr(0, footer / 2));
  StoreReader reader;
  EXPECT_NE(reader.Open(c.path), "");
}

TEST(StoreContainer, TruncatedTrailerIsRejected) {
  CorruptionCase c;
  Spit(c.path, c.bytes.substr(0, c.bytes.size() - 3));
  StoreReader reader;
  EXPECT_NE(reader.Open(c.path), "");
}

TEST(StoreContainer, FlippedBlockByteFailsCrc) {
  CorruptionCase c;
  StoreReader clean;
  ASSERT_EQ(clean.Open(c.path), "");
  ASSERT_FALSE(clean.blocks().empty());
  const BlockMeta& b = clean.blocks()[0];

  std::string bad = c.bytes;
  bad[b.offset + b.comp_len / 2] ^= 0x01;
  Spit(c.path, bad);

  // The footer is intact, so Open succeeds — the damage must surface as
  // a CRC error on the damaged block, and only that block.
  StoreReader reader;
  ASSERT_EQ(reader.Open(c.path), "");
  std::vector<trace::TraceEvent> events;
  EXPECT_NE(reader.ReadBlock(0, &events), "");
  if (reader.blocks().size() > 1) {
    EXPECT_EQ(reader.ReadBlock(1, &events), "");
  }
}

TEST(StoreContainer, BlockCutAfterOpenIsAnIoErrorNotCorruption) {
  CorruptionCase c;
  StoreReader reader;
  ASSERT_EQ(reader.Open(c.path), "");
  ASSERT_FALSE(reader.blocks().empty());
  // The file shrinks under an open reader: reading a block past the new
  // end is a short read, not a payload that fails its CRC.
  ASSERT_EQ(::truncate(c.path.c_str(), 0), 0);
  std::vector<trace::TraceEvent> events(3);
  const std::string err = reader.ReadBlock(0, &events);
  EXPECT_NE(err.find("short read"), std::string::npos) << err;
  EXPECT_EQ(err.find("CRC"), std::string::npos) << err;
  EXPECT_TRUE(events.empty());
}

TEST(StoreContainer, FlippedFooterByteIsRejected) {
  CorruptionCase c;
  std::string bad = c.bytes;
  bad[c.FooterOffset() + 5] ^= 0x20;
  Spit(c.path, bad);
  StoreReader reader;
  EXPECT_NE(reader.Open(c.path), "");
}

TEST(StoreContainer, IndexPastEofIsRejected) {
  CorruptionCase c;
  // Drop the tail of the data region but keep the (unchanged, so still
  // CRC-valid) footer: block offsets now point past the data that
  // remains. Open must reject on the bounds check, not misparse.
  const std::uint64_t footer = c.FooterOffset();
  const std::uint64_t cut = footer / 2;
  std::string bad = c.bytes.substr(0, cut) +
                    c.bytes.substr(footer, c.bytes.size() - 20 - footer);
  ser::PutU64Le(bad, cut);  // the new footer offset
  bad.append(c.bytes.substr(c.bytes.size() - 12));  // old CRC + end magic
  Spit(c.path, bad);
  StoreReader reader;
  EXPECT_NE(reader.Open(c.path), "");
}

TEST(StoreContainer, BadMagicIsRejected) {
  CorruptionCase c;
  std::string bad = c.bytes;
  bad[0] = 'X';
  Spit(c.path, bad);
  StoreReader reader;
  EXPECT_NE(reader.Open(c.path), "");

  Spit(c.path, "short");
  StoreReader reader2;
  EXPECT_NE(reader2.Open(c.path), "");
}

TEST(StoreContainer, TruncatedLegacyV1IsRejected) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_store_legacy_trunc.trace");
  Spit(path, trace::EncodeTrace(file));
  const std::string bytes = Slurp(path);
  Spit(path, bytes.substr(0, bytes.size() / 2));
  StoreReader reader;
  EXPECT_NE(reader.Open(path), "");
  std::remove(path.c_str());
}

// ------------------------------------------------------------ query --

TEST(StoreQuery, SummarizeMatchesFullDecode) {
  const trace::TraceFile file = RecordSoak(2);
  const std::string path = TempPath("anc_store_query_sum.ancstore");
  StoreWriterOptions options;
  options.block_events = 512;
  ASSERT_EQ(WriteStoreFile(path, file, options), "");
  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");

  const StoreSummary summary = Summarize(reader);
  ASSERT_EQ(summary.runs.size(), file.runs.size());
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < file.runs.size(); ++r) {
    const auto& events = file.runs[r].events;
    total += events.size();
    EXPECT_EQ(summary.runs[r].n_events, events.size());
    std::uint64_t arrives = 0, departs = 0, detects = 0;
    for (const trace::TraceEvent& e : events) {
      arrives += e.kind == trace::EventKind::kArrive;
      departs += e.kind == trace::EventKind::kDepart;
      detects += e.kind == trace::EventKind::kDetect;
    }
    EXPECT_EQ(summary.runs[r].arrives, arrives);
    EXPECT_EQ(summary.runs[r].departs, departs);
    EXPECT_EQ(summary.runs[r].detects, detects);
  }
  EXPECT_EQ(summary.n_events, total);
  std::remove(path.c_str());
}

TEST(StoreQuery, FrameWindowMatchesFullDecode) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_store_query_win.ancstore");
  StoreWriterOptions options;
  options.block_events = 256;
  ASSERT_EQ(WriteStoreFile(path, file, options), "");
  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");

  auto frame_bearing = [](const trace::TraceEvent& e) {
    return e.kind != trace::EventKind::kEpoch &&
           e.kind != trace::EventKind::kTdmaSlot &&
           e.kind != trace::EventKind::kRunEnd;
  };
  std::uint64_t max_frame = 0;
  for (const trace::TraceEvent& e : file.runs[0].events) {
    if (frame_bearing(e) && e.frame > max_frame) max_frame = e.frame;
  }
  const std::uint64_t lo = max_frame / 3;
  const std::uint64_t hi = 2 * max_frame / 3;

  std::vector<trace::TraceEvent> expect;
  for (const trace::TraceEvent& e : file.runs[0].events) {
    if (frame_bearing(e) && e.frame >= lo && e.frame <= hi) {
      expect.push_back(e);
    }
  }
  std::vector<trace::TraceEvent> got;
  WindowSeed seed;
  ASSERT_EQ(QueryFrameWindow(reader, 0, lo, hi, &got, &seed), "");
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "event " << i;
  }

  // The seed must replay the prefix: counters over all events strictly
  // before the window's first block.
  const std::size_t first_block = reader.FindBlockForFrame(0, lo);
  ASSERT_NE(first_block, kNoBlock);
  const std::uint64_t prefix = reader.blocks()[first_block].first_event;
  std::uint64_t arrives = 0;
  for (std::uint64_t i = 0; i < prefix; ++i) {
    arrives +=
        file.runs[0].events[i].kind == trace::EventKind::kArrive;
  }
  EXPECT_EQ(seed.arrives, arrives);
  std::remove(path.c_str());
}

// QueryFrameWindow's rule applied to whole ReadBlock output: from the
// seek target on, in block order, skip events that carry no frame (epoch,
// TDMA slot, run end), stop at the first frame past hi, keep frames from
// lo on. Churn events count as frame-bearing, as in the query.
std::string ReferenceFrameWindow(StoreReader& reader, std::size_t run,
                                 std::uint64_t lo, std::uint64_t hi,
                                 std::vector<trace::TraceEvent>* out,
                                 WindowSeed* seed) {
  out->clear();
  *seed = WindowSeed{};
  const StoredRun& r = reader.runs()[run];
  const std::size_t start = reader.FindBlockForFrame(run, lo);
  if (start == kNoBlock) return "";
  if (start > r.first_block) {
    const BlockMeta& prev = reader.blocks()[start - 1];
    *seed = {prev.acks_cum, prev.arrives_cum, prev.departs_cum,
             prev.detects_cum, prev.population_end};
  }
  std::vector<trace::TraceEvent> events;
  for (std::size_t b = start; b < r.first_block + r.n_blocks; ++b) {
    const std::string err = reader.ReadBlock(b, &events);
    if (!err.empty()) return err;
    for (const trace::TraceEvent& e : events) {
      if (e.kind == trace::EventKind::kEpoch ||
          e.kind == trace::EventKind::kTdmaSlot ||
          e.kind == trace::EventKind::kRunEnd) {
        continue;
      }
      if (e.frame > hi) return "";
      if (e.frame >= lo) out->push_back(e);
    }
  }
  return "";
}

TEST(StoreQuery, FrameWindowMatchesBlockScan) {
  const trace::TraceFile file = RecordSoak(2);
  for (const std::size_t block_events : {1u, 7u, 256u, 4096u}) {
    const std::string path = TempPath("anc_store_query_scan.ancstore");
    StoreWriterOptions options;
    options.block_events = block_events;
    ASSERT_EQ(WriteStoreFile(path, file, options), "");
    StoreReader reader;
    ASSERT_EQ(reader.Open(path), "");
    Pcg32 rng(41 + block_events);
    std::size_t nonempty = 0;
    for (std::size_t q = 0; q < 240; ++q) {
      const std::size_t run = q % file.runs.size();
      const StoredRun& r = reader.runs()[run];
      std::uint64_t max_frame = 0;
      for (std::size_t b = 0; b < r.n_blocks; ++b) {
        max_frame =
            std::max(max_frame, reader.blocks()[r.first_block + b].max_frame);
      }
      const auto frames = static_cast<std::uint32_t>(max_frame + 1);
      std::uint64_t lo = rng.UniformBelow(frames);
      std::uint64_t hi = lo + rng.UniformBelow(9);
      if (q % 20 == 1) {  // past the last frame
        lo = max_frame + 1 + rng.UniformBelow(3);
        hi = lo + rng.UniformBelow(5);
      } else if (q % 20 == 2) {  // lo > hi
        lo = 1 + rng.UniformBelow(frames);
        hi = lo - 1 - rng.UniformBelow(static_cast<std::uint32_t>(lo));
      } else if (q % 20 == 3) {  // the whole run
        lo = 0;
        hi = max_frame;
      }
      std::vector<trace::TraceEvent> got, want;
      WindowSeed seed, want_seed;
      ASSERT_EQ(QueryFrameWindow(reader, run, lo, hi, &got, &seed), "");
      ASSERT_EQ(ReferenceFrameWindow(reader, run, lo, hi, &want, &want_seed),
                "");
      const std::string what = "block_events " +
                               std::to_string(block_events) + " run " +
                               std::to_string(run) + " [" +
                               std::to_string(lo) + ", " +
                               std::to_string(hi) + "]";
      ASSERT_EQ(got, want) << what;
      EXPECT_EQ(seed.acks, want_seed.acks) << what;
      EXPECT_EQ(seed.arrives, want_seed.arrives) << what;
      EXPECT_EQ(seed.departs, want_seed.departs) << what;
      EXPECT_EQ(seed.detects, want_seed.detects) << what;
      EXPECT_EQ(seed.population, want_seed.population) << what;
      nonempty += !got.empty();
    }
    EXPECT_GT(nonempty, 100u) << "block_events " << block_events;
    std::remove(path.c_str());
  }
}

TEST(StoreQuery, EpochWindowMatchesFullDecode) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_store_query_epoch.ancstore");
  StoreWriterOptions options;
  options.block_events = 256;
  ASSERT_EQ(WriteStoreFile(path, file, options), "");
  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");

  std::vector<trace::TraceEvent> epochs;
  for (const trace::TraceEvent& e : file.runs[0].events) {
    if (e.kind == trace::EventKind::kEpoch) epochs.push_back(e);
  }
  ASSERT_GT(epochs.size(), 2u);

  // Epoch indices are 1-based (kEpoch.frame = running epoch count), so
  // the interior window [2, n-1] maps to vector entries [1, n-2].
  std::vector<trace::TraceEvent> got;
  ASSERT_EQ(QueryEpochWindow(reader, 0, 2, epochs.size() - 1, &got), "");
  ASSERT_EQ(got.size(), epochs.size() - 2);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], epochs[i + 1]);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------ streaming read path --

// Every event of run `ri` through a RunCursor; *error gets its error().
std::vector<trace::TraceEvent> WalkRun(StoreReader& reader, std::size_t ri,
                                       std::string* error) {
  RunCursor cursor(reader, ri);
  std::vector<trace::TraceEvent> events;
  while (const trace::TraceEvent* e = cursor.Next()) events.push_back(*e);
  EXPECT_EQ(cursor.Next(), nullptr);  // the end stays the end
  *error = cursor.error();
  return events;
}

// Writes `file` as a store of `block_events`-event blocks at `path`.
void WriteBlocks(const std::string& path, const trace::TraceFile& file,
                 std::size_t block_events) {
  StoreWriterOptions options;
  options.block_events = block_events;
  ASSERT_EQ(WriteStoreFile(path, file, options), "");
}

// Flips one stored byte of the second-to-last block (which must exist).
// Returns that block's first event index within its run.
std::uint64_t CorruptLateBlock(const std::string& path) {
  StoreReader clean;
  EXPECT_EQ(clean.Open(path), "");
  EXPECT_GE(clean.blocks().size(), 4u);
  const BlockMeta& late = clean.blocks()[clean.blocks().size() - 2];
  std::string bytes = Slurp(path);
  bytes[late.offset + late.comp_len / 2] ^= 0x01;
  Spit(path, bytes);
  return late.first_event;
}

TEST(RunCursor, EventsEqualReadAllOnV1AndEveryBlockSize) {
  const trace::TraceFile file = RecordSoak(2);
  const std::string v1 = TempPath("anc_cursor_v1.trace");
  const std::string store = TempPath("anc_cursor_blocks.ancstore");
  Spit(v1, trace::EncodeTrace(file));
  for (const std::size_t block_events : {0u, 1u, 7u, 4096u}) {
    SCOPED_TRACE(block_events == 0 ? std::string("v1")
                                   : std::to_string(block_events));
    if (block_events > 0) WriteBlocks(store, file, block_events);
    StoreReader reader;
    ASSERT_EQ(reader.Open(block_events == 0 ? v1 : store), "");
    trace::TraceFile all;
    ASSERT_EQ(reader.ReadAll(&all), "");
    ASSERT_EQ(all, file);
    for (std::size_t ri = 0; ri < all.runs.size(); ++ri) {
      EXPECT_EQ(RunCursor(reader, ri).header(), all.runs[ri].header);
      std::string error;
      EXPECT_EQ(WalkRun(reader, ri, &error), all.runs[ri].events);
      EXPECT_EQ(error, "");
    }
  }
  std::remove(v1.c_str());
  std::remove(store.c_str());
}

TEST(RunCursor, CorruptLateBlockIsAnErrorNotEndOfRun) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string path = TempPath("anc_cursor_corrupt.ancstore");
  WriteBlocks(path, file, 256);
  const std::uint64_t good_events = CorruptLateBlock(path);
  StoreReader reader;
  ASSERT_EQ(reader.Open(path), "");
  std::string error;
  const auto events = WalkRun(reader, 0, &error);
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  EXPECT_EQ(events.size(), good_events);  // stops at the damaged block
  RunCursor cursor(reader, 0);
  trace::NullSink sink;
  EXPECT_EQ(cursor.PushTo(&sink), error);
  std::remove(path.c_str());
}

// What `trace_inspect diff` does for one run: run `ri` of b pushed
// through a DiffSink against run `ri` of a, both walked by cursors.
struct StoredDiff {
  trace::TraceDiff diff;
  std::string error;
};

StoredDiff DiffStoredRun(const std::string& a_path, const std::string& b_path,
                         std::size_t ri) {
  StoreReader a, b;
  StoredDiff r;
  r.error = a.Open(a_path) + b.Open(b_path);
  if (!r.error.empty()) return r;
  RunCursor ca(a, ri), cb(b, ri);
  trace::DiffSink sink(ca.header(), [&ca] { return ca.Next(); }, ri);
  r.error = cb.PushTo(&sink) + ca.error();
  r.diff = sink.diff();
  return r;
}

constexpr std::size_t kHeaderLevel = static_cast<std::size_t>(-1);

// Writes a and b as 64-event-block stores and checks that the streamed
// comparison of run `ri` and the in-memory DiffRuns both find the first
// divergence at (ri, event_index) with the same report.
void ExpectDivergence(const trace::TraceFile& a, const trace::TraceFile& b,
                      std::size_t ri, std::size_t event_index) {
  // Per-test names: ctest runs the callers in parallel.
  const std::string test =
      testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::string a_path = TempPath(("anc_diff_a_" + test).c_str());
  const std::string b_path = TempPath(("anc_diff_b_" + test).c_str());
  WriteBlocks(a_path, a, 64);
  WriteBlocks(b_path, b, 64);
  const StoredDiff stored = DiffStoredRun(a_path, b_path, ri);
  ASSERT_EQ(stored.error, "");
  const trace::TraceDiff in_memory = trace::DiffRuns(a.runs[ri], b.runs[ri], ri);
  for (const trace::TraceDiff* d : {&stored.diff, &in_memory}) {
    EXPECT_FALSE(d->identical);
    EXPECT_EQ(d->run_index, ri);
    EXPECT_EQ(d->event_index, event_index);
  }
  EXPECT_EQ(stored.diff.message, in_memory.message);
  EXPECT_EQ(stored.diff.a, in_memory.a);
  EXPECT_EQ(stored.diff.b, in_memory.b);
  EXPECT_EQ(trace::DiffTraces(a, b).event_index, event_index);
  if (ri > 0) {
    EXPECT_TRUE(DiffStoredRun(a_path, b_path, 0).diff.identical);
  }
  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
}

TEST(RunDiff, DivergenceInTheLastBlock) {
  const trace::TraceFile a = RecordSoak(2);
  trace::TraceFile b = a;
  std::vector<trace::TraceEvent>& events = b.runs[1].events;
  ASSERT_GT(events.size(), 4 * 64u);
  const std::size_t victim = events.size() - 2;
  events[victim].slot += 1;
  ExpectDivergence(a, b, 1, victim);
  const trace::TraceDiff diff = trace::DiffRuns(a.runs[1], b.runs[1], 1);
  ASSERT_TRUE(diff.a && diff.b);
  EXPECT_EQ(diff.b->slot, diff.a->slot + 1);
}

TEST(RunDiff, LengthMismatchesEitherWay) {
  const trace::TraceFile a = RecordSoak(2);
  const std::size_t n = a.runs[1].events.size();
  trace::TraceFile shorter = a;
  shorter.runs[1].events.pop_back();
  ExpectDivergence(a, shorter, 1, n - 1);
  trace::TraceDiff diff = trace::DiffRuns(a.runs[1], shorter.runs[1], 1);
  EXPECT_TRUE(diff.a && !diff.b);
  EXPECT_NE(diff.message.find("then a continues"), std::string::npos);
  EXPECT_NE(diff.message.find("(a has " + std::to_string(n) +
                              " events, b has " + std::to_string(n - 1) +
                              " events)"),
            std::string::npos)
      << diff.message;

  trace::TraceFile longer = a;
  longer.runs[1].events.push_back(longer.runs[1].events.back());
  longer.runs[1].events.push_back(longer.runs[1].events.back());
  ExpectDivergence(a, longer, 1, n);
  diff = trace::DiffRuns(a.runs[1], longer.runs[1], 1);
  EXPECT_TRUE(!diff.a && diff.b);
  EXPECT_NE(diff.message.find("(a has " + std::to_string(n) +
                              " events, b has " + std::to_string(n + 2) +
                              " events)"),
            std::string::npos)
      << diff.message;
}

TEST(RunDiff, HeaderMismatch) {
  const trace::TraceFile a = RecordSoak(1);
  trace::TraceFile b = a;
  b.runs[0].header.base_seed += 1;
  ExpectDivergence(a, b, 0, kHeaderLevel);
  const trace::TraceDiff diff = trace::DiffRuns(a.runs[0], b.runs[0], 0);
  EXPECT_TRUE(!diff.a && !diff.b);
  EXPECT_NE(diff.message.find("headers differ"), std::string::npos);
}

TEST(RunDiff, ReadErrorOnEitherSideIsAnErrorNotAVerdict) {
  const trace::TraceFile file = RecordSoak(1);
  const std::string good = TempPath("anc_diff_good.ancstore");
  const std::string bad = TempPath("anc_diff_bad.ancstore");
  WriteBlocks(good, file, 256);
  WriteBlocks(bad, file, 256);
  CorruptLateBlock(bad);
  EXPECT_NE(DiffStoredRun(good, bad, 0).error, "");
  EXPECT_NE(DiffStoredRun(bad, good, 0).error, "");
  EXPECT_EQ(DiffStoredRun(good, good, 0).error, "");
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(RunDiff, ReplayStreamsAStoredSoak) {
  const trace::TraceFile file = RecordSoak(2);
  trace::TraceFile tampered = file;
  const std::size_t victim = tampered.runs[1].events.size() / 2;
  tampered.runs[1].events[victim].slot += 1;
  const std::string path = TempPath("anc_replay_stream.ancstore");
  const auto factory = core::MakeFcatFactory({});
  for (const trace::TraceFile* f : {&file, &std::as_const(tampered)}) {
    WriteBlocks(path, *f, 64);
    StoreReader reader;
    ASSERT_EQ(reader.Open(path), "");
    for (std::size_t ri = 0; ri < 2; ++ri) {
      RunCursor cursor(reader, ri);
      const service::ReplayReport report = service::VerifyReplay(
          cursor.header(), [&cursor] { return cursor.Next(); }, factory);
      EXPECT_EQ(cursor.error(), "");
      const bool diverges = f == &tampered && ri == 1;
      EXPECT_EQ(report.ok, !diverges) << report.message;
      if (diverges) {
        EXPECT_EQ(report.diff.run_index, 1u);
        EXPECT_EQ(report.diff.event_index, victim);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(RunDiff, UnknownServiceProfileIsAHeaderLevelFailure) {
  trace::RunTrace run = RecordSoak(1).runs[0];
  run.header.protocol = "FCAT-2~nope";
  const service::ReplayReport report =
      service::VerifyReplay(run, core::MakeFcatFactory({}));
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.diff.identical);
  EXPECT_EQ(report.diff.run_index, run.header.run_index);
  EXPECT_EQ(report.diff.event_index, kHeaderLevel);
  EXPECT_NE(report.message.find("unknown service profile 'nope'"),
            std::string::npos)
      << report.message;
}

// --------------------------------------------------------- snapshot --

TEST(EpochSnapshotLog, PublishReadLatestWindow) {
  EpochSnapshotLog log(4);
  EpochSnapshot snap;
  EXPECT_FALSE(log.Latest(&snap));
  EXPECT_FALSE(log.Read(0, &snap));

  for (std::uint64_t i = 0; i < 6; ++i) {
    EpochSnapshot s;
    s.epoch = i;
    s.population = 10 + i;
    log.Publish(s);
  }
  EXPECT_EQ(log.published(), 6u);
  // 0 and 1 fell off the 4-entry ring.
  EXPECT_FALSE(log.Read(0, &snap));
  EXPECT_FALSE(log.Read(1, &snap));
  ASSERT_TRUE(log.Read(2, &snap));
  EXPECT_EQ(snap.epoch, 2u);
  ASSERT_TRUE(log.Latest(&snap));
  EXPECT_EQ(snap.epoch, 5u);
  EXPECT_EQ(snap.population, 15u);

  const std::vector<EpochSnapshot> window = log.Window(3);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window.front().epoch, 3u);
  EXPECT_EQ(window.back().epoch, 5u);
}

TEST(EpochSnapshotLog, ConcurrentReadersNeverSeeTornData) {
  // Payload fields are derived from the epoch; any torn read breaks the
  // relation. Small capacity maximizes wraparound pressure.
  EpochSnapshotLog log(2);
  constexpr std::uint64_t kPublishes = 200000;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int> in_loop{0};
  std::atomic<std::uint64_t> reads{0}, failures{0};

  const auto publish = [&log](std::uint64_t i) {
    EpochSnapshot s;
    s.epoch = i;
    s.population = i * 3 + 1;
    s.detected = i * 7 + 2;
    s.ghosts = i + 5;
    log.Publish(s);
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      EpochSnapshot s;
      bool counted = false;
      while (!done.load(std::memory_order_acquire)) {
        if (log.Latest(&s)) {
          reads.fetch_add(1, std::memory_order_relaxed);
          if (s.population != s.epoch * 3 + 1 ||
              s.detected != s.epoch * 7 + 2 ||
              s.ghosts != s.epoch + 5) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          if (!counted) {
            counted = true;
            in_loop.fetch_add(1, std::memory_order_release);
          }
        }
        // Window entries must each be internally consistent too.
        for (const EpochSnapshot& w : log.Window(2)) {
          if (w.population != w.epoch * 3 + 1) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Start barrier: publish one snapshot, then hold the writer until every
  // reader has read inside its loop. Without it the writer can finish
  // all publishes before any reader starts and the test checks nothing.
  publish(0);
  while (in_loop.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  for (std::uint64_t i = 1; i < kPublishes; ++i) publish(i);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(reads.load(), std::uint64_t{kReaders});
  EpochSnapshot last;
  ASSERT_TRUE(log.Latest(&last));
  EXPECT_EQ(last.epoch, kPublishes - 1);
}

// The service publishes one snapshot per epoch when handed a log.
TEST(EpochSnapshotLog, ServicePublishesEpochs) {
  service::ServiceConfig config;
  ASSERT_TRUE(service::LookupServiceProfile("smoke", &config));
  core::FcatOptions options;
  options.lambda = 2;
  EpochSnapshotLog log(128);
  service::SoakOptions so;
  so.n_initial = 30;
  so.runs = 1;
  so.base_seed = 7;
  so.snapshot_log = &log;
  const service::SloReport report = service::RunSoakSingle(
      core::MakeFcatFactory(options), config, so, 0);
  EXPECT_EQ(log.published(), report.epochs);
  EpochSnapshot last;
  ASSERT_TRUE(log.Latest(&last));
  EXPECT_EQ(last.epoch, report.epochs);
}

}  // namespace
}  // namespace anc::store
