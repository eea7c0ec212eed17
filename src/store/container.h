// Block-based compressed trace container ("ANCSTORE"): the storage layer
// that makes 100k-slot soak traces recordable, seekable and queryable
// without ever holding a whole file (or a whole run) in memory.
//
// On-disk layout (store_version 2):
//   file    := magic[8]="ANCSTORE" varint(store_version)
//              varint(trace_version) segment* footer trailer
//   segment := run | block
//   run     := 'R' varint(run_index) varint(base_seed) varint(n_tags)
//              varint(max_slots_per_tag) varint(name_len) name
//   block   := 'B' varint(raw_len) varint(comp_len) varint(crc32)
//              payload[comp_len]
//   footer  := 'F' varint(n_runs) runmeta* varint(n_blocks) blockmeta*
//   trailer := u64le(footer_offset) u32le(crc32(footer)) magic[8]="ANCSEND1"
//
// Version 2 made the data region self-delimiting: every segment opens
// with a marker byte, blocks carry their own length + CRC, and run
// boundaries are written inline (v1 kept run identity only in the
// footer). A SIGKILL-truncated file — no footer, possibly a torn final
// segment — is therefore recoverable: RecoverStoreFile() scans the
// segment chain, CRC-validates and decodes every complete block,
// discards the torn tail and rebuilds the footer index. StoreReader
// still opens v1 store files (and legacy "ANCTRACE" traces); only v2
// files are recoverable.
//
// Block payloads wrap the versioned varint event codec (trace/binary.h)
// in a column-major transform: one column of kind bytes, then the
// reader / slot-delta / frame-delta columns, then one column per
// (kind, field) pair of the shared schema. Slot/frame (and the
// cumulative elapsed_us clocks, per kind) are zigzag delta-encoded with
// chains that reset at the block boundary, so every block decodes
// independently. The columnar bytes then go through the self-contained
// LZ compressor (store/lz.h); a block that does not shrink is stored
// raw (comp_len == raw_len).
//
// The footer indexes every block with its (run, frame, slot) coverage
// plus the run's cumulative RunCounters (acks, arrivals, departures,
// detections, live population) at its end: the query seed that lets the
// query layer (store/query.h) answer summary/timeseries/epoch-window
// questions from the index plus O(1) block decodes — seek-to-frame is a
// binary search over the per-run running-max frame, O(log n_blocks).
//
// Integrity: the trailer carries a CRC over the footer and every block
// carries a CRC over its stored payload. Truncation, bit flips and
// index entries pointing outside the data region are all rejected at
// Open()/ReadBlock() — a corrupt container never misparses into
// plausible events.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/binary.h"
#include "trace/sink.h"

namespace anc::store {

inline constexpr std::string_view kStoreMagic = "ANCSTORE";
inline constexpr std::string_view kStoreEndMagic = "ANCSEND1";
inline constexpr std::uint64_t kStoreVersion = 2;
inline constexpr std::uint64_t kStoreVersionMin = 1;  // oldest readable
inline constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

// Durability policy for completed blocks (crash-safety knob). kNone
// leaves stdio buffering alone — fastest, loses up to one stdio buffer
// on SIGKILL. kFlush fflushes after every completed block so it reaches
// the kernel (survives process death). kFsync additionally fsyncs the fd
// (survives power loss).
enum class SyncPolicy : std::uint8_t { kNone, kFlush, kFsync };

struct StoreWriterOptions {
  // Events buffered per block before a flush; the writer's working
  // memory is O(block_events), independent of run length.
  std::size_t block_events = 4096;
  // Off stores every block raw (comp_len == raw_len) — the debug and
  // ratio-baseline path.
  bool compress = true;
  // Crash durability of completed blocks; see SyncPolicy.
  SyncPolicy sync = SyncPolicy::kNone;
};

// Per-run cumulative counters: the footer carries them at the end of
// every block, and the query layer seeds a window from the entry before
// it (store/query.h WindowSeed). The writer keeps the running copy.
struct RunCounters {
  std::uint64_t acks = 0;  // first-time over-the-air reads
  std::uint64_t arrives = 0, departs = 0, detects = 0;
  std::uint64_t population = 0;  // live population after the last churn

  void Update(const trace::TraceEvent& e);
};

// Footer index entry for one block.
struct BlockMeta {
  std::uint64_t run_ordinal = 0;  // index into runs()
  std::uint64_t offset = 0;       // file offset of the stored payload
  std::uint64_t raw_len = 0;      // columnar bytes before compression
  std::uint64_t comp_len = 0;     // stored bytes (== raw_len: stored raw)
  std::uint32_t crc32 = 0;        // CRC over the stored payload
  std::uint64_t first_event = 0;  // event index within the run
  std::uint64_t n_events = 0;
  std::uint64_t min_frame = 0, max_frame = 0;
  std::uint64_t first_slot = 0, last_slot = 0;
  RunCounters cum;  // the run's counters at the END of this block
};

struct StoredRun {
  trace::RunHeader header;
  std::uint64_t n_events = 0;
  std::size_t first_block = 0;
  std::size_t n_blocks = 0;
};

// Streaming writer: BeginRun/Add/EndRun/Finish. Keeps one block of
// events plus the (small) index in memory; Finish() writes footer and
// trailer. All errors latch into the returned strings; after a failed
// call the writer is inert.
class StoreWriter {
 public:
  StoreWriter() = default;
  ~StoreWriter();
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  std::string Open(const std::string& path,
                   const StoreWriterOptions& options = {});
  void BeginRun(const trace::RunHeader& header);
  void Add(const trace::TraceEvent& event);
  std::string EndRun();
  // Flushes, writes footer + trailer, closes. Returns "" on success.
  std::string Finish();

  // Pushes everything written so far to disk: flushes completed blocks
  // (never the in-memory partial block) and fsyncs the fd. Called by the
  // checkpoint layer right before a service checkpoint is cut, so the
  // checkpoint's saved offset is always backed by durable bytes.
  std::string SyncNow();

  // Serializes the writer's full mid-run state — file offset, index so
  // far, cumulative counters and the buffered partial block — into a
  // checkpoint section. Requires an open, unfinished writer.
  void SaveState(std::string* out) const;

  // Reopens `path` (a possibly-torn store file from a killed process)
  // and restores a SaveState() snapshot into this writer: the file is
  // truncated back to the saved offset and writing continues exactly
  // where the checkpoint was cut. Returns "" on success. A snapshot whose
  // index fails the footer's checks (over the data region up to the saved
  // offset), or that has a run open but lists none, is rejected before
  // the file is touched.
  std::string RestoreOpen(const std::string& path, std::string_view state,
                          const StoreWriterOptions& options = {});

  const std::vector<StoredRun>& runs() const { return runs_; }
  const std::vector<BlockMeta>& blocks() const { return blocks_; }
  std::uint64_t bytes_written() const { return offset_; }

 private:
  std::string FlushBlock();
  std::string ApplySyncPolicy();

  std::FILE* file_ = nullptr;
  StoreWriterOptions options_;
  std::vector<StoredRun> runs_;
  std::vector<BlockMeta> blocks_;
  std::vector<trace::TraceEvent> buffer_;
  bool run_open_ = false;
  bool finished_ = false;
  std::uint64_t offset_ = 0;
  std::uint64_t events_in_run_ = 0;
  RunCounters counters_;  // the open run's, buffered events included
  std::string error_;
};

// TraceSink adapter: lets a recording stream straight into a store (every
// harness --trace and `trace_inspect record`). Call Finish() when the
// experiment is done; errors latch into error().
class StoreFileSink final : public trace::TraceSink {
 public:
  StoreFileSink(const std::string& path,
                const StoreWriterOptions& options = {}) {
    error_ = writer_.Open(path, options);
  }

  // Resume constructor: reopens a torn store file and restores a
  // StoreWriter::SaveState() snapshot (service checkpoint restore).
  StoreFileSink(const std::string& path, std::string_view writer_state,
                const StoreWriterOptions& options) {
    error_ = writer_.RestoreOpen(path, writer_state, options);
  }

  void BeginRun(const trace::RunHeader& header) override {
    writer_.BeginRun(header);
  }
  void OnEvent(const trace::TraceEvent& event) override {
    writer_.Add(event);
  }
  void EndRun() override { Latch(writer_.EndRun()); }
  std::string Finish() {
    Latch(writer_.Finish());
    return error_;
  }

  const std::string& error() const { return error_; }

  // Checkpoint access: SaveState/SyncNow on the underlying writer.
  StoreWriter& writer() { return writer_; }
  const StoreWriter& writer() const { return writer_; }

 private:
  void Latch(const std::string& err) {
    if (error_.empty() && !err.empty()) error_ = err;
  }

  StoreWriter writer_;
  std::string error_;
};

// Why StoreReader::Open() failed, for callers that must tell a
// salvageable truncation apart from tampering (satellite of the
// crash-safety work): kTornTail means the file is a clean prefix of a
// store whose footer never landed (SIGKILL mid-soak) and
// RecoverStoreFile() can rebuild it; kCorrupt means a present trailer,
// footer or block failed validation — fail closed, do not salvage.
enum class OpenFailure : std::uint8_t {
  kNone,      // Open() succeeded
  kIo,        // cannot open/stat/read the file
  kNotAStore, // wrong magic: not an ANCSTORE/ANCTRACE file
  kTornTail,  // no valid trailer: truncated mid-write, recoverable
  kCorrupt,   // integrity check failed: reject
};

// Event indices of a block grouped by kind, stream order within each
// kind: a counting sort of the kind column, so each (kind, field) column
// walks only its own kind's events. Build reuses its storage.
class KindIndex {
 public:
  void Build(std::string_view kinds);

  std::span<const std::uint32_t> Of(std::uint8_t kind) const {
    return std::span<const std::uint32_t>(order_).subspan(
        start_[kind], start_[kind + 1] - start_[kind]);
  }

 private:
  std::array<std::uint32_t, 257> start_{};  // one slot per kind byte
  std::vector<std::uint32_t> order_;
};

// A block payload decoded column by column: the block decoder's first
// step. Decode validates every column and keeps its values; Materialize,
// the second step, builds the events of any index range from them. A
// caller that wants only some events (a window query) finds them through
// kind() and frame() and builds just those. Decode reuses its storage.
class BlockColumns {
 public:
  // Validates `raw` (every check DecodeBlockPayload makes) and decodes
  // all of its columns. Returns "" on success; after an error size() is 0.
  std::string Decode(std::string_view raw, std::uint64_t expect_events);

  std::size_t size() const { return n_; }
  trace::EventKind kind(std::size_t i) const {
    return static_cast<trace::EventKind>(kinds_[i]);
  }
  std::uint64_t frame(std::size_t i) const { return frames_[i]; }

  // Writes events [first, last) to dst[0, last - first), setting every
  // member. Requires first <= last <= size().
  void Materialize(std::size_t first, std::size_t last,
                   trace::TraceEvent* dst) const;

 private:
  std::size_t n_ = 0;
  std::string kinds_;
  std::vector<std::uint32_t> readers_;
  std::vector<std::uint64_t> slots_, frames_;  // absolute, not deltas
  KindIndex index_;
  // Every (kind, field) column's values (clocks accumulated) in payload
  // order; kind k's first column starts at values_[field_base_[k]].
  std::vector<std::uint64_t> values_;
  std::array<std::size_t, 256> field_base_{};
};

// Indexed reader over a store file — or, backward-compatibly, over a v1
// uncompressed "ANCTRACE" file, which Open() indexes in one streaming
// pass into the same pseudo-block shape and then reads back from the
// file like store blocks (events are decoded on demand, never retained;
// neither are the file's bytes). Blocks decode independently; a Reader instance is
// single-threaded (open one per concurrent reader).
class StoreReader {
 public:
  StoreReader() = default;
  ~StoreReader();
  StoreReader(const StoreReader&) = delete;
  StoreReader& operator=(const StoreReader&) = delete;

  std::string Open(const std::string& path);

  // Failure classification for the most recent Open() (kNone after
  // success): lets tools suggest `trace_inspect recover` for torn tails
  // while staying fail-closed on corruption.
  OpenFailure open_failure() const { return open_failure_; }

  bool legacy() const { return legacy_; }
  // Parsed store_version (2 for current files, 1 for old stores, 0 in
  // legacy/trace mode).
  std::uint64_t store_version() const { return store_version_; }
  std::uint64_t file_bytes() const { return file_bytes_; }
  const std::vector<StoredRun>& runs() const { return runs_; }
  const std::vector<BlockMeta>& blocks() const { return blocks_; }

  // Decodes one block (CRC-verified). Returns "" on success. Reuses the
  // events *out already holds; leaves *out empty on error.
  std::string ReadBlock(std::size_t index,
                        std::vector<trace::TraceEvent>* out);

  // ReadBlock's first step: CRC-checks block `index` and decodes its
  // columns into scratch the reader owns and reuses. Returns "" and points
  // *columns at them, valid until the next call; on error *columns is
  // null.
  std::string ReadBlockColumns(std::size_t index,
                               const BlockColumns** columns);

  // First block of `run_ordinal` that can contain an event of `frame`
  // (binary search over running-max frame). kNoBlock when the frame is
  // beyond the run's last event.
  std::size_t FindBlockForFrame(std::size_t run_ordinal,
                                std::uint64_t frame) const;

  // Full decode, for round-trip verification and format conversion.
  std::string ReadAll(trace::TraceFile* out);

 private:
  std::string OpenLegacy(std::string_view bytes, const std::string& path);
  std::string OpenStore(const std::string& path);

  std::FILE* file_ = nullptr;
  // ReadBlockColumns' stored and decompressed bytes and decoded columns,
  // reused across blocks.
  std::string payload_, raw_;
  BlockColumns columns_;
  bool legacy_ = false;
  std::vector<StoredRun> runs_;
  std::vector<BlockMeta> blocks_;
  // Per run: running max frame per block, the seek search structure.
  std::vector<std::vector<std::uint64_t>> cummax_frame_;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t store_version_ = 0;
  OpenFailure open_failure_ = OpenFailure::kNone;
};

// The streaming read path: walks one run of an open reader one block at a
// time through ReadBlock into one reused vector, so a scan holds O(block)
// events however long the run is. The reader must outlive the cursor.
class RunCursor {
 public:
  RunCursor(StoreReader& reader, std::size_t run_ordinal)
      : reader_(reader), run_(reader.runs()[run_ordinal]) {}

  const trace::RunHeader& header() const { return run_.header; }

  // The next event, valid until the following call; null at the end of
  // the run or on error, which error() tells apart. A run whose blocks
  // hold another event count than the index says ends in an error.
  const trace::TraceEvent* Next();

  // Pushes the header and every remaining event into `sink`, BeginRun to
  // EndRun. Returns error().
  std::string PushTo(trace::TraceSink* sink);

  const std::string& error() const { return error_; }

 private:
  StoreReader& reader_;
  const StoredRun& run_;
  std::vector<trace::TraceEvent> events_;
  std::size_t pos_ = 0;
  std::size_t next_block_ = 0;
  std::uint64_t decoded_ = 0;
  std::string error_;
};

// ---- Tail recovery ---------------------------------------------------------

// What RecoverStoreFile salvaged (and dropped) from a torn store.
struct RecoverInfo {
  std::uint64_t store_version = 0;
  std::uint64_t salvaged_runs = 0;
  std::uint64_t salvaged_blocks = 0;
  std::uint64_t salvaged_events = 0;
  std::uint64_t salvaged_bytes = 0;   // header + intact data-region bytes
  std::uint64_t discarded_bytes = 0;  // torn tail / stale footer dropped
  bool tail_torn = false;   // file ended mid-segment (vs. at a boundary)
  bool had_footer = false;  // a footer marker was present in the input
};

// Scans a version-2 store file without using its footer: walks the
// self-delimiting segment chain from the header, CRC-validates and
// decodes every complete block, and rewrites `out_path` as a finalized
// store (salvaged data region verbatim + rebuilt footer index). The
// torn final segment, if any, is discarded. Fails closed — returns a
// non-empty error and writes nothing — on anything that is not
// explainable as truncation: an unknown segment marker, a block whose
// payload is fully present but fails its CRC or does not decode. A
// file that already has a valid footer round-trips unchanged.
std::string RecoverStoreFile(const std::string& in_path,
                             const std::string& out_path, RecoverInfo* info);

// Columnar block payload codec (exposed for tests). Decode validates
// that exactly `expect_events` events are present and the payload is
// fully consumed, accepts only bytes Encode could have written (so a
// decoded block re-encodes to its input), and leaves *out empty on error.
// It is BlockColumns::Decode then Materialize over [0, n), and reuses
// *out's events, so pass the same vector block after block.
std::string EncodeBlockPayload(const std::vector<trace::TraceEvent>& events);
std::string DecodeBlockPayload(std::string_view raw,
                               std::uint64_t expect_events,
                               std::vector<trace::TraceEvent>* out);

// One-shot conveniences (compress / decompress whole files).
std::string WriteStoreFile(const std::string& path,
                           const trace::TraceFile& file,
                           const StoreWriterOptions& options = {});
std::string ReadStoreFile(const std::string& path, trace::TraceFile* out);

}  // namespace anc::store
