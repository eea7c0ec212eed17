#include "store/container.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>

#include "common/file_io.h"
#include "common/serialize.h"

#include "store/crc32.h"
#include "store/lz.h"

namespace anc::store {
namespace {

using trace::EventKind;
using trace::FieldSpec;
using trace::TraceEvent;

constexpr char kRunMarker = 'R';
constexpr char kBlockMarker = 'B';
constexpr char kFooterMarker = 'F';
constexpr std::size_t kTrailerBytes = 8 + 4 + 8;  // offset, crc, end magic
constexpr std::uint8_t kMinKind = static_cast<std::uint8_t>(EventKind::kSlot);
constexpr std::uint8_t kMaxKind = static_cast<std::uint8_t>(EventKind::kEpoch);
constexpr std::size_t kLegacyBlockEvents = 4096;
// Fail-closed cap on a single block's decoded size: no writer produces
// blocks remotely this large, so a bigger claim is corruption.
constexpr std::uint64_t kMaxBlockRawLen = 1ull << 30;

// Wrap-exact zigzag over the two's-complement difference: works for any
// pair of u64 values, monotone or not.
inline std::uint64_t ZigZag(std::uint64_t delta_bits) {
  const std::uint64_t sign = delta_bits >> 63 ? ~0ull : 0ull;
  return (delta_bits << 1) ^ sign;
}

inline std::uint64_t UnZigZag(std::uint64_t enc) {
  return (enc >> 1) ^ (0ull - (enc & 1));
}

// Per-run cumulative counters the footer carries for query seeding
// (shared between the store writer and the legacy indexing pass).
struct RunCounters {
  std::uint64_t acks = 0, arrives = 0, departs = 0, detects = 0,
                population = 0;

  void Update(const TraceEvent& e) {
    switch (e.kind) {
      case EventKind::kAck:
        // First-time reads only: re-acks and injection silencing do not
        // advance inventory progress.
        if (e.ack == trace::AckKind::kSingletonId ||
            e.ack == trace::AckKind::kSlotIndex ||
            e.ack == trace::AckKind::kFullId) {
          ++acks;
        }
        break;
      case EventKind::kArrive:
        ++arrives;
        population = e.n_c;
        break;
      case EventKind::kDepart:
        ++departs;
        population = e.n_c;
        break;
      case EventKind::kDetect:
        ++detects;
        break;
      default:
        break;
    }
  }
};

void FillBlockCoverage(const std::vector<TraceEvent>& events, BlockMeta* m) {
  m->n_events = events.size();
  m->first_slot = events.front().slot;
  m->last_slot = events.back().slot;
  m->min_frame = events.front().frame;
  m->max_frame = events.front().frame;
  for (const TraceEvent& e : events) {
    m->min_frame = std::min(m->min_frame, e.frame);
    m->max_frame = std::max(m->max_frame, e.frame);
  }
}

void PutBlockMeta(std::string& out, const BlockMeta& m) {
  ser::PutVarint(out, m.run_ordinal);
  ser::PutVarint(out, m.offset);
  ser::PutVarint(out, m.raw_len);
  ser::PutVarint(out, m.comp_len);
  ser::PutVarint(out, m.crc32);
  ser::PutVarint(out, m.first_event);
  ser::PutVarint(out, m.n_events);
  ser::PutVarint(out, m.min_frame);
  ser::PutVarint(out, m.max_frame);
  ser::PutVarint(out, m.first_slot);
  ser::PutVarint(out, m.last_slot);
  ser::PutVarint(out, m.acks_cum);
  ser::PutVarint(out, m.arrives_cum);
  ser::PutVarint(out, m.departs_cum);
  ser::PutVarint(out, m.detects_cum);
  ser::PutVarint(out, m.population_end);
}

// A run's footer entry: its header, then its event and block span.
void PutStoredRun(std::string& out, const StoredRun& run) {
  trace::PutRunHeader(out, run.header);
  ser::PutVarint(out, run.n_events);
  ser::PutVarint(out, run.first_block);
  ser::PutVarint(out, run.n_blocks);
}

bool GetStoredRun(ser::Reader& r, StoredRun* run) {
  if (!trace::GetRunHeader(r, &run->header)) return false;
  run->n_events = r.Varint();
  run->first_block = static_cast<std::size_t>(r.Varint());
  run->n_blocks = static_cast<std::size_t>(r.Varint());
  return r.ok;
}

// Footer + trailer serialization, shared by StoreWriter::Finish and the
// tail-recovery rebuild (so a recovered file is byte-identical to what
// Finish would have written over the same salvaged prefix).
std::string BuildFooterBytes(const std::vector<StoredRun>& runs,
                             const std::vector<BlockMeta>& blocks) {
  std::string footer;
  footer.push_back(kFooterMarker);
  ser::PutVarint(footer, runs.size());
  for (const StoredRun& run : runs) PutStoredRun(footer, run);
  ser::PutVarint(footer, blocks.size());
  for (const BlockMeta& meta : blocks) PutBlockMeta(footer, meta);
  return footer;
}

std::string BuildTrailerBytes(std::uint64_t footer_offset,
                              const std::string& footer) {
  std::string tail;
  ser::PutU64Le(tail, footer_offset);
  ser::PutU32Le(tail, Crc32(footer));
  tail += kStoreEndMagic;
  return tail;
}

bool GetBlockMeta(ser::Reader& r, BlockMeta* m) {
  m->run_ordinal = r.Varint();
  m->offset = r.Varint();
  m->raw_len = r.Varint();
  m->comp_len = r.Varint();
  m->crc32 = static_cast<std::uint32_t>(r.Varint());
  m->first_event = r.Varint();
  m->n_events = r.Varint();
  m->min_frame = r.Varint();
  m->max_frame = r.Varint();
  m->first_slot = r.Varint();
  m->last_slot = r.Varint();
  m->acks_cum = r.Varint();
  m->arrives_cum = r.Varint();
  m->departs_cum = r.Varint();
  m->detects_cum = r.Varint();
  m->population_end = r.Varint();
  return r.ok;
}

// Per run: the running max frame over its blocks, FindBlockForFrame's
// search structure.
std::vector<std::vector<std::uint64_t>> RunningMaxFrames(
    const std::vector<StoredRun>& runs, const std::vector<BlockMeta>& blocks) {
  std::vector<std::vector<std::uint64_t>> out(runs.size());
  for (std::size_t ri = 0; ri < runs.size(); ++ri) {
    std::uint64_t running = 0;
    for (std::size_t b = 0; b < runs[ri].n_blocks; ++b) {
      running = std::max(running, blocks[runs[ri].first_block + b].max_frame);
      out[ri].push_back(running);
    }
  }
  return out;
}

// Reads exactly `n` bytes at `offset` of `f` without moving its file
// position. Returns "" or what went wrong: an I/O error, or a file that
// ends first.
std::string ReadAt(std::FILE* f, std::uint64_t offset, char* buf,
                   std::size_t n) {
  while (n > 0) {
    const ssize_t got = pread(fileno(f), buf, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) return std::string("I/O error: ") + std::strerror(errno);
    if (got == 0) return "short read";
    buf += got;
    n -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return "";
}

}  // namespace

// ---- Columnar block payload ------------------------------------------------

namespace {

// Splits the next column of `count` values off `raw` at *pos and moves
// *pos past it: a reader over exactly the column's bytes, or one with
// ok == false when the payload ends first. Varint columns end at their
// count-th final byte (high bit clear), so reading `count` values
// consumes the reader exactly unless one of them is malformed. Final
// bytes are counted a word at a time while the column ends past it.
ser::Reader NextColumn(std::string_view raw, std::size_t* pos,
                       FieldSpec::Type type, std::uint64_t count) {
  std::size_t end = *pos;
  if (type == FieldSpec::Type::kByte) {
    if (count > raw.size() - end) return ser::Reader{{}, 0, false};
    end += static_cast<std::size_t>(count);
  } else {
    constexpr std::uint64_t kHighBits = 0x8080808080808080ull;
    constexpr std::uint64_t kLowBytes = 0x0101010101010101ull;
    for (; raw.size() - end >= 8; end += 8) {
      std::uint64_t word;
      std::memcpy(&word, raw.data() + end, 8);
      // One 0/1 per byte, summed into the top byte by the multiply.
      const std::uint64_t finals = ((~word & kHighBits) >> 7) * kLowBytes >> 56;
      if (finals >= count) break;
      count -= finals;
    }
    for (; count > 0; ++end) {
      if (end == raw.size()) return ser::Reader{{}, 0, false};
      count -= static_cast<std::uint8_t>(raw[end]) < 0x80;
    }
  }
  const ser::Reader column{raw.substr(*pos, end - *pos)};
  *pos = end;
  return column;
}

// Decodes the `count` varints of a column NextColumn split off, passing
// each to put(j, v). A one-byte varint, the common case, skips the
// general decoder. Returns false at the first malformed varint.
template <typename Put>
bool DecodeVarints(std::string_view column, std::size_t count, Put put) {
  const char* p = column.data();
  const char* const end = p + column.size();
  for (std::size_t j = 0; j < count; ++j) {
    if (p != end && static_cast<std::uint8_t>(*p) < 0x80) {
      put(j, static_cast<std::uint8_t>(*p++));
      continue;
    }
    ser::Reader r{std::string_view(p, static_cast<std::size_t>(end - p))};
    const std::uint64_t v = r.Varint();
    if (!r.ok) return false;
    p += r.pos;
    put(j, v);
  }
  return true;
}

// Appends bytes and varints through a stack buffer: the bytes of
// ser::PutVarint/PutByte without a capacity check per byte.
class ColumnWriter {
 public:
  void Varint(std::uint64_t v) {
    Room();
    p_ = ser::WriteVarint(p_, v);
  }
  void Byte(std::uint8_t b) {
    Room();
    *p_++ = static_cast<char>(b);
  }
  void Bytes(std::string_view bytes) {
    Spill();
    out_.append(bytes);
  }
  std::string Finish() {
    Spill();
    return std::move(out_);
  }

 private:
  void Room() {
    if (p_ > buf_ + sizeof buf_ - 10) Spill();
  }
  void Spill() {
    out_.append(buf_, static_cast<std::size_t>(p_ - buf_));
    p_ = buf_;
  }

  std::string out_;
  char buf_[4096];
  char* p_ = buf_;
};

}  // namespace

void KindIndex::Build(std::string_view kinds) {
  start_.fill(0);
  order_.resize(kinds.size());
  for (const char k : kinds) ++start_[static_cast<std::uint8_t>(k) + 1];
  for (std::size_t k = 1; k < start_.size(); ++k) start_[k] += start_[k - 1];
  std::array<std::uint32_t, 256> next;
  std::copy(start_.begin(), start_.end() - 1, next.begin());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    order_[next[static_cast<std::uint8_t>(kinds[i])]++] =
        static_cast<std::uint32_t>(i);
  }
}

std::string EncodeBlockPayload(const std::vector<TraceEvent>& events) {
  ColumnWriter out;
  out.Varint(events.size());
  // Kind column.
  std::string kinds(events.size(), '\0');
  for (std::size_t i = 0; i < events.size(); ++i) {
    kinds[i] = static_cast<char>(events[i].kind);
  }
  out.Bytes(kinds);
  // Reader column.
  for (const TraceEvent& e : events) out.Varint(e.reader);
  // Slot and frame columns: zigzag deltas in stream order, chains reset
  // at the block boundary so blocks decode independently.
  std::uint64_t prev = 0;
  for (const TraceEvent& e : events) {
    out.Varint(ZigZag(e.slot - prev));
    prev = e.slot;
  }
  prev = 0;
  for (const TraceEvent& e : events) {
    out.Varint(ZigZag(e.frame - prev));
    prev = e.frame;
  }
  // One column per (kind, field): values of that field across all events
  // of that kind, stream order. Cumulative clocks delta within the column.
  KindIndex index;
  index.Build(kinds);
  for (std::uint8_t k = kMinKind; k <= kMaxKind; ++k) {
    for (const FieldSpec& f : trace::EventFields(static_cast<EventKind>(k))) {
      prev = 0;
      for (const std::uint32_t i : index.Of(k)) {
        const std::uint64_t v = trace::GetEventField(events[i], f);
        if (f.type == FieldSpec::Type::kByte) {
          out.Byte(static_cast<std::uint8_t>(v));
        } else if (f.cumulative_clock) {
          out.Varint(ZigZag(v - prev));
          prev = v;
        } else {
          out.Varint(v);
        }
      }
    }
  }
  return out.Finish();
}

std::string BlockColumns::Decode(std::string_view raw,
                                 std::uint64_t expect_events) {
  n_ = 0;  // set again only when every check passed
  ser::Reader head{raw};
  const std::uint64_t n = head.Varint();
  if (!head.ok) return "truncated block payload header";
  if (n != expect_events) {
    return "block declares " + std::to_string(n) + " events, index says " +
           std::to_string(expect_events);
  }
  // Every event takes a kind byte plus reader, slot and frame varints.
  if (n > raw.size() / 4) return "event count exceeds payload size";
  const auto count = static_cast<std::size_t>(n);
  std::size_t pos = head.pos;
  const ser::Reader kinds = NextColumn(raw, &pos, FieldSpec::Type::kByte, n);
  if (!kinds.ok) return "truncated kind column";
  kinds_.assign(kinds.bytes);
  index_.Build(kinds_);
  for (int k = 0; k < 256; ++k) {
    const auto kb = static_cast<std::uint8_t>(k);
    if (!index_.Of(kb).empty() && !trace::ValidEventKind(kb)) {
      return "invalid event kind " + std::to_string(k) + " in kind column";
    }
  }
  const ser::Reader readers = NextColumn(raw, &pos, FieldSpec::Type::kVarint, n);
  const ser::Reader slots = NextColumn(raw, &pos, FieldSpec::Type::kVarint, n);
  const ser::Reader frames = NextColumn(raw, &pos, FieldSpec::Type::kVarint, n);
  if (!readers.ok || !slots.ok || !frames.ok) {
    return "truncated reader/slot/frame columns";
  }
  readers_.resize(count);
  slots_.resize(count);
  frames_.resize(count);
  std::uint64_t widest = 0;
  const bool readers_ok =
      DecodeVarints(readers.bytes, count, [&](std::size_t i, std::uint64_t v) {
        widest = std::max(widest, v);
        readers_[i] = static_cast<std::uint32_t>(v);
      });
  if (widest > std::numeric_limits<std::uint32_t>::max()) {
    return "reader id " + std::to_string(widest) + " out of range";
  }
  // Slot and frame are zigzag deltas from the previous event's.
  std::uint64_t slot = 0, frame = 0;
  const bool slots_ok =
      DecodeVarints(slots.bytes, count, [&](std::size_t i, std::uint64_t v) {
        slots_[i] = slot += UnZigZag(v);
      });
  const bool frames_ok =
      DecodeVarints(frames.bytes, count, [&](std::size_t i, std::uint64_t v) {
        frames_[i] = frame += UnZigZag(v);
      });
  if (!readers_ok || !slots_ok || !frames_ok) {
    return "malformed reader/slot/frame columns";
  }
  std::size_t n_values = 0;
  for (std::uint8_t k = kMinKind; k <= kMaxKind; ++k) {
    field_base_[k] = n_values;
    n_values += index_.Of(k).size() *
                trace::EventFields(static_cast<EventKind>(k)).size();
  }
  values_.resize(n_values);
  std::uint64_t* out = values_.data();
  for (std::uint8_t k = kMinKind; k <= kMaxKind; ++k) {
    const auto kind = static_cast<EventKind>(k);
    const std::size_t events = index_.Of(k).size();
    for (const FieldSpec& f : trace::EventFields(kind)) {
      const ser::Reader column = NextColumn(raw, &pos, f.type, events);
      if (!column.ok) return "truncated field columns";
      std::uint64_t widest_field = 0;  // checked against f.Limit() below
      bool ok = true;
      if (f.type == FieldSpec::Type::kByte) {
        for (std::size_t j = 0; j < events; ++j) {
          out[j] = static_cast<std::uint8_t>(column.bytes[j]);
          widest_field = std::max(widest_field, out[j]);
        }
      } else {
        const bool clock_field = f.cumulative_clock;
        std::uint64_t clock = 0;
        ok = DecodeVarints(column.bytes, events,
                           [&](std::size_t j, std::uint64_t v) {
                             widest_field = std::max(widest_field, v);
                             out[j] = clock_field ? clock += UnZigZag(v) : v;
                           });
      }
      if (widest_field > f.Limit()) {
        return "field value " + std::to_string(widest_field) +
               " out of range for " + trace::KindName(kind);
      }
      if (!ok) return "truncated field columns";
      out += events;
    }
  }
  if (pos != raw.size()) {
    return std::to_string(raw.size() - pos) +
           " trailing bytes after block payload";
  }
  n_ = count;
  return "";
}

void BlockColumns::Materialize(std::size_t first, std::size_t last,
                               TraceEvent* dst) const {
  if (first == last) return;
  // Zeroing is several times cheaper than constructing each event from
  // its member initializers, and all-zero bytes are a blank event once
  // `kind` is set.
  static_assert(std::is_trivially_copyable_v<TraceEvent>);
  std::memset(static_cast<void*>(dst), 0, (last - first) * sizeof(TraceEvent));
  for (std::size_t i = first; i < last; ++i) {
    TraceEvent& e = dst[i - first];
    e.kind = static_cast<EventKind>(kinds_[i]);
    e.reader = readers_[i];
    e.slot = slots_[i];
    e.frame = frames_[i];
  }
  for (std::uint8_t k = kMinKind; k <= kMaxKind; ++k) {
    const auto kind = static_cast<EventKind>(k);
    const std::span<const std::uint32_t> all = index_.Of(k);
    // This kind's events in [first, last): a run of its index.
    const std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(all.begin(), all.end(), first) - all.begin());
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(all.begin() + static_cast<std::ptrdiff_t>(lo),
                         all.end(), last) -
        all.begin());
    if (lo == hi) continue;
    const std::uint64_t* column = values_.data() + field_base_[k];
    // A copy of each spec: SetEventField stores through a char pointer,
    // which would otherwise force the loop to reload it after every field.
    for (const FieldSpec f : trace::EventFields(kind)) {
      for (std::size_t j = lo; j < hi; ++j) {
        trace::SetEventField(dst[all[j] - first], f, column[j]);
      }
      column += all.size();
    }
  }
}

std::string DecodeBlockPayload(std::string_view raw,
                               std::uint64_t expect_events,
                               std::vector<TraceEvent>* out) {
  BlockColumns columns;
  std::string err = columns.Decode(raw, expect_events);
  if (!err.empty()) {
    out->clear();
    return err;
  }
  out->resize(columns.size());
  columns.Materialize(0, columns.size(), out->data());
  return "";
}

// ---- StoreWriter -----------------------------------------------------------

StoreWriter::~StoreWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

std::string StoreWriter::Open(const std::string& path,
                              const StoreWriterOptions& options) {
  options_ = options;
  if (options_.block_events == 0) options_.block_events = 1;
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return error_ = "cannot open " + path + " for write";
  std::string header(kStoreMagic);
  ser::PutVarint(header, kStoreVersion);
  ser::PutVarint(header, trace::kTraceVersion);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    return error_ = "short write to " + path;
  }
  offset_ = header.size();
  return "";
}

void StoreWriter::BeginRun(const trace::RunHeader& header) {
  if (!error_.empty() || finished_ || file_ == nullptr) return;
  if (run_open_) EndRun();
  if (!error_.empty()) return;
  // Inline run marker (v2): recovery re-attributes blocks to runs from
  // the data region alone when the footer never landed.
  std::string marker;
  marker.push_back(kRunMarker);
  trace::PutRunHeader(marker, header);
  if (std::fwrite(marker.data(), 1, marker.size(), file_) != marker.size()) {
    error_ = "short write (run marker)";
    return;
  }
  offset_ += marker.size();
  StoredRun run;
  run.header = header;
  run.first_block = blocks_.size();
  runs_.push_back(std::move(run));
  run_open_ = true;
  events_in_run_ = 0;
  acks_cum_ = arrives_cum_ = departs_cum_ = detects_cum_ = population_ = 0;
}

void StoreWriter::Add(const trace::TraceEvent& event) {
  if (!error_.empty() || !run_open_) return;
  RunCounters c{acks_cum_, arrives_cum_, departs_cum_, detects_cum_,
                population_};
  c.Update(event);
  acks_cum_ = c.acks;
  arrives_cum_ = c.arrives;
  departs_cum_ = c.departs;
  detects_cum_ = c.detects;
  population_ = c.population;
  buffer_.push_back(event);
  ++events_in_run_;
  if (buffer_.size() >= options_.block_events) error_ = FlushBlock();
}

std::string StoreWriter::FlushBlock() {
  if (buffer_.empty()) return "";
  const std::string raw = EncodeBlockPayload(buffer_);
  std::string compressed;
  if (options_.compress) compressed = LzCompress(raw);
  // Stored raw (comp_len == raw_len) when compression is off or not a win.
  const bool use_raw = !options_.compress || compressed.size() >= raw.size();
  const std::string& payload = use_raw ? raw : compressed;

  BlockMeta meta;
  meta.run_ordinal = runs_.size() - 1;
  meta.raw_len = raw.size();
  meta.comp_len = payload.size();
  meta.crc32 = Crc32(payload);
  meta.first_event = events_in_run_ - buffer_.size();
  FillBlockCoverage(buffer_, &meta);
  meta.acks_cum = acks_cum_;
  meta.arrives_cum = arrives_cum_;
  meta.departs_cum = departs_cum_;
  meta.detects_cum = detects_cum_;
  meta.population_end = population_;

  std::string head;
  head.push_back(kBlockMarker);
  ser::PutVarint(head, meta.raw_len);
  ser::PutVarint(head, meta.comp_len);
  ser::PutVarint(head, meta.crc32);  // v2: blocks self-validate
  if (std::fwrite(head.data(), 1, head.size(), file_) != head.size()) {
    return "short write (block header)";
  }
  offset_ += head.size();
  meta.offset = offset_;
  if (std::fwrite(payload.data(), 1, payload.size(), file_) !=
      payload.size()) {
    return "short write (block payload)";
  }
  offset_ += payload.size();
  blocks_.push_back(meta);
  buffer_.clear();
  return ApplySyncPolicy();
}

std::string StoreWriter::ApplySyncPolicy() {
  if (options_.sync == SyncPolicy::kNone) return "";
  const std::size_t every = std::max<std::size_t>(options_.flush_every_blocks, 1);
  if (++blocks_since_sync_ < every) return "";
  blocks_since_sync_ = 0;
  if (std::fflush(file_) != 0) return "flush failed (disk full?)";
  if (options_.sync == SyncPolicy::kFsync && fsync(fileno(file_)) != 0) {
    return "fsync failed";
  }
  return "";
}

std::string StoreWriter::SyncNow() {
  if (!error_.empty()) return error_;
  if (file_ == nullptr) return "writer not open";
  if (std::fflush(file_) != 0) return error_ = "flush failed (disk full?)";
  if (fsync(fileno(file_)) != 0) return error_ = "fsync failed";
  blocks_since_sync_ = 0;
  return "";
}

std::string StoreWriter::EndRun() {
  if (!run_open_) return error_;
  if (error_.empty()) error_ = FlushBlock();
  runs_.back().n_events = events_in_run_;
  runs_.back().n_blocks = blocks_.size() - runs_.back().first_block;
  run_open_ = false;
  return error_;
}

std::string StoreWriter::Finish() {
  if (finished_ || file_ == nullptr) return error_;
  if (run_open_) EndRun();
  finished_ = true;
  if (error_.empty()) {
    const std::string footer = BuildFooterBytes(runs_, blocks_);
    const std::string tail = BuildTrailerBytes(offset_, footer);
    if (std::fwrite(footer.data(), 1, footer.size(), file_) != footer.size() ||
        std::fwrite(tail.data(), 1, tail.size(), file_) != tail.size()) {
      error_ = "short write (footer)";
    }
    offset_ += footer.size() + tail.size();
  }
  if (std::fclose(file_) != 0 && error_.empty()) {
    error_ = "close failed (disk full?)";
  }
  file_ = nullptr;
  return error_;
}

void StoreWriter::SaveState(std::string* out) const {
  // Mid-run writer snapshot: file offset, full index so far, cumulative
  // counters and the buffered partial block (as a columnar payload).
  // Everything a resumed writer needs to continue byte-identically.
  ser::PutVarint(*out, offset_);
  ser::PutVarint(*out, events_in_run_);
  ser::PutByte(*out, run_open_ ? 1 : 0);
  ser::PutVarint(*out, acks_cum_);
  ser::PutVarint(*out, arrives_cum_);
  ser::PutVarint(*out, departs_cum_);
  ser::PutVarint(*out, detects_cum_);
  ser::PutVarint(*out, population_);
  ser::PutVarint(*out, runs_.size());
  for (const StoredRun& run : runs_) PutStoredRun(*out, run);
  ser::PutVarint(*out, blocks_.size());
  for (const BlockMeta& meta : blocks_) PutBlockMeta(*out, meta);
  const std::string pending = EncodeBlockPayload(buffer_);
  ser::PutVarint(*out, buffer_.size());
  ser::PutVarint(*out, pending.size());
  *out += pending;
}

std::string StoreWriter::RestoreOpen(const std::string& path,
                                     std::string_view state,
                                     const StoreWriterOptions& options) {
  if (file_ != nullptr) return "writer already open";
  options_ = options;
  if (options_.block_events == 0) options_.block_events = 1;

  ser::Reader r{state};
  const std::uint64_t offset = r.Varint();
  const std::uint64_t events_in_run = r.Varint();
  const bool run_open = r.Byte() != 0;
  const std::uint64_t acks = r.Varint();
  const std::uint64_t arrives = r.Varint();
  const std::uint64_t departs = r.Varint();
  const std::uint64_t detects = r.Varint();
  const std::uint64_t population = r.Varint();
  const std::uint64_t n_runs = r.Varint();
  if (!r.ok || n_runs > state.size()) return "corrupt writer state (runs)";
  std::vector<StoredRun> runs;
  runs.reserve(static_cast<std::size_t>(n_runs));
  for (std::uint64_t i = 0; i < n_runs; ++i) {
    StoredRun run;
    if (!GetStoredRun(r, &run)) return "corrupt writer state (run header)";
    runs.push_back(std::move(run));
  }
  const std::uint64_t n_blocks = r.Varint();
  if (!r.ok || n_blocks > state.size()) return "corrupt writer state (blocks)";
  std::vector<BlockMeta> blocks;
  blocks.reserve(static_cast<std::size_t>(n_blocks));
  for (std::uint64_t i = 0; i < n_blocks; ++i) {
    BlockMeta meta;
    if (!GetBlockMeta(r, &meta)) return "corrupt writer state (block meta)";
    blocks.push_back(meta);
  }
  const std::uint64_t n_buffered = r.Varint();
  const std::uint64_t pending_len = r.Varint();
  if (!r.ok || pending_len > state.size() - r.pos) {
    return "corrupt writer state (pending block)";
  }
  std::vector<trace::TraceEvent> buffered;
  const std::string derr = DecodeBlockPayload(state.substr(r.pos, pending_len),
                                              n_buffered, &buffered);
  if (!derr.empty()) return "corrupt writer state: " + derr;
  r.pos += static_cast<std::size_t>(pending_len);
  if (!r.ok || !r.AtEnd()) return "trailing bytes in writer state";

  file_ = std::fopen(path.c_str(), "rb+");
  if (file_ == nullptr) return "cannot reopen " + path + " for resume";
  const auto fail = [&](const std::string& err) {
    std::fclose(file_);
    file_ = nullptr;
    return path + ": " + err;
  };
  char magic[8] = {};
  if (std::fread(magic, 1, sizeof magic, file_) != sizeof magic ||
      std::string_view(magic, 8) != kStoreMagic) {
    return fail("not an ANCSTORE file");
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) return fail("cannot seek to end");
  const long end = std::ftell(file_);
  if (end < 0) return fail("cannot stat");
  if (static_cast<std::uint64_t>(end) < offset) {
    return fail("shorter than the checkpointed offset (" +
                std::to_string(end) + " < " + std::to_string(offset) +
                " bytes) — durable data lost");
  }
  // Drop the torn tail: everything past the checkpoint offset was
  // written after the checkpoint was cut and will be re-written
  // identically by the resumed run.
  if (ftruncate(fileno(file_), static_cast<off_t>(offset)) != 0) {
    return fail("cannot truncate to resume offset");
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return fail("cannot seek to the resume offset");
  }

  offset_ = offset;
  events_in_run_ = events_in_run;
  run_open_ = run_open;
  acks_cum_ = acks;
  arrives_cum_ = arrives;
  departs_cum_ = departs;
  detects_cum_ = detects;
  population_ = population;
  runs_ = std::move(runs);
  blocks_ = std::move(blocks);
  buffer_ = std::move(buffered);
  finished_ = false;
  blocks_since_sync_ = 0;
  error_.clear();
  return "";
}

// ---- StoreReader -----------------------------------------------------------

StoreReader::~StoreReader() {
  if (file_ != nullptr) std::fclose(file_);
}

std::string StoreReader::Open(const std::string& path) {
  open_failure_ = OpenFailure::kNone;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    open_failure_ = OpenFailure::kIo;
    return "cannot open " + path;
  }
  char magic[8] = {};
  const std::size_t got = std::fread(magic, 1, sizeof magic, f);
  if (std::ferror(f)) {
    std::fclose(f);
    open_failure_ = OpenFailure::kIo;
    return "read error on " + path;
  }
  if (got == sizeof magic &&
      std::string_view(magic, 8) == trace::kTraceMagic) {
    // Legacy v1 uncompressed trace: slurp and index in one pass. Any
    // damage (including truncation) is unrecoverable here — the row
    // format is not self-delimiting.
    std::fclose(f);
    std::string bytes;
    if (std::string err = ReadWholeFile(path, &bytes); !err.empty()) {
      open_failure_ = OpenFailure::kIo;
      return err;
    }
    const std::string err = OpenLegacy(std::move(bytes), path);
    if (!err.empty()) open_failure_ = OpenFailure::kCorrupt;
    return err;
  }
  std::fclose(f);
  if (got != sizeof magic || std::string_view(magic, 8) != kStoreMagic) {
    open_failure_ = OpenFailure::kNotAStore;
    return path + ": not an ANCSTORE or ANCTRACE file";
  }
  const std::string err = OpenStore(path);
  if (!err.empty() && open_failure_ == OpenFailure::kNone) {
    open_failure_ = OpenFailure::kCorrupt;
  }
  return err;
}

std::string StoreReader::OpenLegacy(std::string bytes,
                                    const std::string& path) {
  legacy_ = true;
  legacy_bytes_ = std::move(bytes);
  file_bytes_ = legacy_bytes_.size();
  const std::string_view view = legacy_bytes_;
  ser::Reader r{view, trace::kTraceMagic.size()};
  const std::uint64_t version = r.Varint();
  if (!r.ok) return path + ": truncated header";
  if (version != trace::kTraceVersion) {
    return path + ": unsupported trace version " + std::to_string(version);
  }
  // One streaming pass: decode each event to learn its span and coverage,
  // retain only pseudo-block index entries (kLegacyBlockEvents each).
  while (!r.AtEnd()) {
    if (r.Byte() != 'R') {
      return path + ": corrupt run marker at offset " +
             std::to_string(r.pos - 1);
    }
    StoredRun run;
    if (!trace::GetRunHeader(r, &run.header)) {
      return path + ": truncated run header at offset " +
             std::to_string(r.pos);
    }
    run.first_block = blocks_.size();
    RunCounters counters;
    std::vector<TraceEvent> pending;
    std::size_t block_start = r.pos;
    const auto flush = [&]() {
      if (pending.empty()) return;
      BlockMeta meta;
      meta.run_ordinal = runs_.size();
      meta.offset = block_start;
      meta.raw_len = r.pos - block_start;
      meta.comp_len = meta.raw_len;
      meta.crc32 = Crc32(view.substr(block_start, r.pos - block_start));
      meta.first_event = run.n_events - pending.size();
      FillBlockCoverage(pending, &meta);
      meta.acks_cum = counters.acks;
      meta.arrives_cum = counters.arrives;
      meta.departs_cum = counters.departs;
      meta.detects_cum = counters.detects;
      meta.population_end = counters.population;
      blocks_.push_back(meta);
      pending.clear();
      block_start = r.pos;
    };
    for (;;) {
      const std::size_t event_start = r.pos;
      const std::uint8_t kind = r.Byte();
      if (!r.ok) {
        return path + ": unterminated run block at offset " +
               std::to_string(r.pos);
      }
      if (kind == 0x00) {
        // Exclude the terminator from the last pseudo-block's byte span.
        r.pos = event_start;
        flush();
        r.pos = event_start + 1;
        break;
      }
      TraceEvent e;
      if (!trace::DecodeEvent(r, kind, &e)) {
        return path + ": corrupt event at offset " + std::to_string(r.pos);
      }
      counters.Update(e);
      ++run.n_events;
      pending.push_back(e);
      if (pending.size() >= kLegacyBlockEvents) flush();
    }
    run.n_blocks = blocks_.size() - run.first_block;
    runs_.push_back(std::move(run));
  }
  cummax_frame_ = RunningMaxFrames(runs_, blocks_);
  return "";
}

std::string StoreReader::OpenStore(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    open_failure_ = OpenFailure::kIo;
    return "cannot open " + path;
  }
  struct stat st {};
  if (fstat(fileno(file_), &st) != 0) {
    open_failure_ = OpenFailure::kIo;
    return path + ": cannot stat";
  }
  file_bytes_ = static_cast<std::uint64_t>(st.st_size);
  const auto read_at = [&](std::uint64_t offset, char* buf, std::size_t n,
                           const char* what) {
    std::string err = ReadAt(file_, offset, buf, n);
    if (!err.empty()) {
      open_failure_ = OpenFailure::kIo;
      err = path + ": " + err + " (" + what + ")";
    }
    return err;
  };

  // Parse the versioned header: magic + store_version + trace_version.
  // Versions 1 (no inline markers, no per-block CRC head) and 2 are
  // readable; the footer path below is identical for both.
  char head_buf[32];
  const auto n_head = static_cast<std::size_t>(
      std::min<std::uint64_t>(sizeof head_buf, file_bytes_));
  if (std::string err = read_at(0, head_buf, n_head, "header"); !err.empty()) {
    return err;
  }
  ser::Reader hr{std::string_view(head_buf, n_head), kStoreMagic.size()};
  const std::uint64_t store_version = hr.Varint();
  const std::uint64_t trace_version = hr.Varint();
  if (!hr.ok) return path + ": truncated store header";
  if (store_version < kStoreVersionMin || store_version > kStoreVersion) {
    return path + ": unsupported store version " +
           std::to_string(store_version);
  }
  if (trace_version != trace::kTraceVersion) {
    return path + ": unsupported trace version " +
           std::to_string(trace_version);
  }
  store_version_ = store_version;
  const std::uint64_t header_len = hr.pos;

  // Fixed-size trailer next: it locates (and checksums) the footer. Its
  // absence is the torn-tail signature — a SIGKILLed writer never wrote
  // a footer — which RecoverStoreFile can salvage; every later failure
  // is corruption and stays fail-closed.
  if (file_bytes_ < header_len + kTrailerBytes) {
    open_failure_ = OpenFailure::kTornTail;
    return path + ": no room for a trailer (torn store; " +
           "`trace_inspect recover` may salvage it)";
  }
  char tail[kTrailerBytes];
  if (std::string err = read_at(file_bytes_ - kTrailerBytes, tail,
                                kTrailerBytes, "trailer");
      !err.empty()) {
    return err;
  }
  if (std::string_view(tail + 12, 8) != kStoreEndMagic) {
    open_failure_ = OpenFailure::kTornTail;
    return path + ": missing end magic (torn or unfinalized store; " +
           "`trace_inspect recover` may salvage it)";
  }
  ser::Reader tr{std::string_view(tail, kTrailerBytes)};
  const std::uint64_t footer_offset = tr.U64Le();
  const std::uint32_t footer_crc = tr.U32Le();
  if (footer_offset < header_len ||
      footer_offset > file_bytes_ - kTrailerBytes) {
    return path + ": footer offset " + std::to_string(footer_offset) +
           " outside file";
  }

  std::string footer(
      static_cast<std::size_t>(file_bytes_ - kTrailerBytes - footer_offset),
      '\0');
  if (std::string err =
          read_at(footer_offset, footer.data(), footer.size(), "footer");
      !err.empty()) {
    return err;
  }
  if (Crc32(footer) != footer_crc) {
    return path + ": footer CRC mismatch (corrupt index)";
  }

  ser::Reader r{footer};
  if (r.Byte() != kFooterMarker) return path + ": bad footer marker";
  const std::uint64_t n_runs = r.Varint();
  if (!r.ok || n_runs > footer.size()) return path + ": corrupt footer";
  runs_.reserve(static_cast<std::size_t>(n_runs));
  for (std::uint64_t i = 0; i < n_runs; ++i) {
    StoredRun run;
    if (!GetStoredRun(r, &run)) {
      return path + ": corrupt footer (run " + std::to_string(i) + ")";
    }
    runs_.push_back(std::move(run));
  }
  const std::uint64_t n_blocks = r.Varint();
  if (!r.ok || n_blocks > footer.size()) return path + ": corrupt footer";
  blocks_.reserve(static_cast<std::size_t>(n_blocks));
  for (std::uint64_t i = 0; i < n_blocks; ++i) {
    BlockMeta meta;
    if (!GetBlockMeta(r, &meta)) {
      return path + ": corrupt footer (block " + std::to_string(i) + ")";
    }
    if (meta.run_ordinal >= runs_.size()) {
      return path + ": block " + std::to_string(i) + " references run " +
             std::to_string(meta.run_ordinal) + " of " +
             std::to_string(runs_.size());
    }
    if (meta.offset < header_len || meta.comp_len > footer_offset ||
        meta.offset > footer_offset - meta.comp_len) {
      return path + ": block " + std::to_string(i) +
             " points outside the data region";
    }
    if (meta.raw_len > kMaxBlockRawLen || meta.comp_len > meta.raw_len ||
        meta.n_events == 0) {
      return path + ": block " + std::to_string(i) + " has implausible sizes";
    }
    blocks_.push_back(meta);
  }
  if (!r.AtEnd()) return path + ": trailing bytes after footer";
  for (const StoredRun& run : runs_) {
    if (run.first_block > blocks_.size() ||
        run.n_blocks > blocks_.size() - run.first_block) {
      return path + ": run block range outside index";
    }
  }
  cummax_frame_ = RunningMaxFrames(runs_, blocks_);
  return "";
}

std::string StoreReader::ReadBlock(std::size_t index,
                                   std::vector<trace::TraceEvent>* out) {
  const BlockColumns* columns = nullptr;
  const std::string err = ReadBlockColumns(index, &columns);
  if (!err.empty()) {
    out->clear();
    return err;
  }
  out->resize(columns->size());
  columns->Materialize(0, columns->size(), out->data());
  return "";
}

std::string StoreReader::ReadBlockColumns(std::size_t index,
                                          const BlockColumns** columns) {
  *columns = nullptr;
  if (index >= blocks_.size()) {
    return "block index " + std::to_string(index) + " out of range";
  }
  const BlockMeta& meta = blocks_[index];
  const auto tag = [&](const std::string& what) {
    return "block " + std::to_string(index) + ": " + what;
  };
  std::string_view payload;
  if (legacy_) {
    payload = std::string_view(legacy_bytes_)
                  .substr(static_cast<std::size_t>(meta.offset),
                          static_cast<std::size_t>(meta.comp_len));
  } else {
    payload_.resize(static_cast<std::size_t>(meta.comp_len));
    if (std::string err = ReadAt(file_, meta.offset, payload_.data(),
                                 payload_.size());
        !err.empty()) {
      return tag(err);
    }
    payload = payload_;
  }
  if (Crc32(payload) != meta.crc32) {
    return tag("payload CRC mismatch (corrupt data)");
  }
  std::string_view raw = payload;
  if (legacy_) {
    // Pseudo-block over v1 row-format bytes: decode its events, then
    // take them through the columnar codec like any other block.
    ser::Reader r{payload};
    std::vector<trace::TraceEvent> events;
    events.reserve(static_cast<std::size_t>(meta.n_events));
    for (std::uint64_t i = 0; i < meta.n_events; ++i) {
      const std::uint8_t kind = r.Byte();
      trace::TraceEvent e;
      if (!r.ok || !trace::DecodeEvent(r, kind, &e)) {
        return tag("corrupt v1 event");
      }
      events.push_back(e);
    }
    if (!r.AtEnd()) return tag("trailing bytes in v1 block");
    raw_ = EncodeBlockPayload(events);
    raw = raw_;
  } else if (meta.comp_len != meta.raw_len) {
    const std::string err =
        LzDecompress(payload, static_cast<std::size_t>(meta.raw_len), &raw_);
    if (!err.empty()) return tag(err);
    raw = raw_;
  }
  const std::string err = columns_.Decode(raw, meta.n_events);
  if (!err.empty()) return tag(err);
  *columns = &columns_;
  return "";
}

std::size_t StoreReader::FindBlockForFrame(std::size_t run_ordinal,
                                           std::uint64_t frame) const {
  if (run_ordinal >= runs_.size()) return kNoBlock;
  const auto& cummax = cummax_frame_[run_ordinal];
  const auto it = std::lower_bound(cummax.begin(), cummax.end(), frame);
  if (it == cummax.end()) return kNoBlock;
  return runs_[run_ordinal].first_block +
         static_cast<std::size_t>(it - cummax.begin());
}

std::string StoreReader::ReadAll(trace::TraceFile* out) {
  out->runs.clear();
  out->runs.reserve(runs_.size());
  for (std::size_t ri = 0; ri < runs_.size(); ++ri) {
    trace::RunTrace run;
    run.header = runs_[ri].header;
    run.events.reserve(static_cast<std::size_t>(runs_[ri].n_events));
    for (std::size_t b = 0; b < runs_[ri].n_blocks; ++b) {
      const BlockColumns* columns = nullptr;
      const std::string err =
          ReadBlockColumns(runs_[ri].first_block + b, &columns);
      if (!err.empty()) return err;
      const std::size_t at = run.events.size();
      run.events.resize(at + columns->size());
      columns->Materialize(0, columns->size(), run.events.data() + at);
    }
    if (run.events.size() != runs_[ri].n_events) {
      return "run " + std::to_string(ri) + " decoded " +
             std::to_string(run.events.size()) + " events, index says " +
             std::to_string(runs_[ri].n_events);
    }
    out->runs.push_back(std::move(run));
  }
  return "";
}

const trace::TraceEvent* RunCursor::Next() {
  while (pos_ == events_.size()) {
    if (!error_.empty()) return nullptr;
    if (next_block_ == run_.n_blocks) {
      if (decoded_ != run_.n_events) {
        error_ = "run " + std::to_string(run_.header.run_index) +
                 " decoded " + std::to_string(decoded_) +
                 " events, index says " + std::to_string(run_.n_events);
      }
      return nullptr;
    }
    error_ = reader_.ReadBlock(run_.first_block + next_block_++, &events_);
    decoded_ += events_.size();
    pos_ = 0;
  }
  return &events_[pos_++];
}

std::string RunCursor::PushTo(trace::TraceSink* sink) {
  sink->BeginRun(run_.header);
  while (const trace::TraceEvent* e = Next()) sink->OnEvent(*e);
  sink->EndRun();
  return error_;
}

// ---- Tail recovery ---------------------------------------------------------

std::string RecoverStoreFile(const std::string& in_path,
                             const std::string& out_path, RecoverInfo* info) {
  RecoverInfo local;
  RecoverInfo& ri = info != nullptr ? *info : local;
  ri = RecoverInfo{};

  std::string bytes;
  if (std::string err = ReadWholeFile(in_path, &bytes); !err.empty()) {
    return err;
  }

  if (bytes.size() < kStoreMagic.size() ||
      std::string_view(bytes).substr(0, kStoreMagic.size()) != kStoreMagic) {
    return in_path + ": not an ANCSTORE file";
  }
  ser::Reader r{bytes, kStoreMagic.size()};
  const std::uint64_t store_version = r.Varint();
  const std::uint64_t trace_version = r.Varint();
  if (!r.ok) return in_path + ": truncated store header (nothing to salvage)";
  if (store_version != kStoreVersion) {
    return in_path + ": recovery requires a version-" +
           std::to_string(kStoreVersion) + " store (found version " +
           std::to_string(store_version) + ")";
  }
  if (trace_version != trace::kTraceVersion) {
    return in_path + ": unsupported trace version " +
           std::to_string(trace_version);
  }
  ri.store_version = store_version;
  const std::size_t header_len = r.pos;

  // Forward scan over the self-delimiting segment chain. Truncation can
  // only manifest as a read running off the end of the file (varint
  // prefixes keep their continuation bit, so a torn head never decodes
  // as a complete smaller head); anything else — unknown marker, CRC or
  // decode failure on a complete payload — is corruption, not a tear.
  std::vector<StoredRun> runs;
  std::vector<BlockMeta> blocks;
  RunCounters counters;
  std::vector<TraceEvent> events;
  std::size_t salvage_end = header_len;
  bool torn = false;

  const auto close_run = [&]() {
    if (!runs.empty()) {
      runs.back().n_blocks = blocks.size() - runs.back().first_block;
    }
  };
  const auto at = [&](std::size_t pos) {
    return " at offset " + std::to_string(pos);
  };

  while (r.pos < bytes.size()) {
    const std::size_t segment_start = r.pos;
    const char marker = bytes[r.pos];
    if (marker == kFooterMarker) {
      // Data region ends here. Whether the footer behind it is complete
      // or torn, the rebuild below replaces it from the scan.
      ri.had_footer = true;
      break;
    }
    if (marker == kRunMarker) {
      ++r.pos;
      trace::RunHeader h;
      if (!trace::GetRunHeader(r, &h)) {
        torn = true;
        r.pos = segment_start;
        break;
      }
      close_run();
      StoredRun run;
      run.header = std::move(h);
      run.first_block = blocks.size();
      runs.push_back(std::move(run));
      counters = RunCounters{};
      salvage_end = r.pos;
      continue;
    }
    if (marker != kBlockMarker) {
      return in_path + ": unrecognized segment marker" + at(segment_start) +
             " (corrupt, refusing to salvage)";
    }
    ++r.pos;
    BlockMeta meta;
    meta.raw_len = r.Varint();
    meta.comp_len = r.Varint();
    meta.crc32 = static_cast<std::uint32_t>(r.Varint());
    if (!r.ok) {
      torn = true;
      r.pos = segment_start;
      break;
    }
    if (runs.empty()) {
      return in_path + ": block before any run marker" + at(segment_start) +
             " (corrupt)";
    }
    if (meta.raw_len == 0 || meta.raw_len > kMaxBlockRawLen ||
        meta.comp_len == 0 || meta.comp_len > meta.raw_len) {
      return in_path + ": block with implausible sizes" + at(segment_start) +
             " (corrupt)";
    }
    if (meta.comp_len > bytes.size() - r.pos) {
      torn = true;
      r.pos = segment_start;
      break;
    }
    meta.offset = r.pos;
    const std::string_view payload =
        std::string_view(bytes).substr(r.pos,
                                       static_cast<std::size_t>(meta.comp_len));
    r.pos += static_cast<std::size_t>(meta.comp_len);
    if (Crc32(payload) != meta.crc32) {
      return in_path + ": complete block fails its CRC" + at(segment_start) +
             " (corrupt, refusing to salvage)";
    }
    std::string raw_storage;
    std::string_view raw = payload;
    if (meta.comp_len != meta.raw_len) {
      const std::string err = LzDecompress(
          payload, static_cast<std::size_t>(meta.raw_len), &raw_storage);
      if (!err.empty()) {
        return in_path + ": block" + at(segment_start) + ": " + err;
      }
      raw = raw_storage;
    }
    ser::Reader pr{raw};
    const std::uint64_t n_events = pr.Varint();
    if (!pr.ok || n_events == 0) {
      return in_path + ": block" + at(segment_start) +
             " declares no events (corrupt)";
    }
    const std::string derr = DecodeBlockPayload(raw, n_events, &events);
    if (!derr.empty()) {
      return in_path + ": block" + at(segment_start) + ": " + derr;
    }
    meta.run_ordinal = runs.size() - 1;
    meta.first_event = runs.back().n_events;
    FillBlockCoverage(events, &meta);
    for (const TraceEvent& e : events) counters.Update(e);
    meta.acks_cum = counters.acks;
    meta.arrives_cum = counters.arrives;
    meta.departs_cum = counters.departs;
    meta.detects_cum = counters.detects;
    meta.population_end = counters.population;
    runs.back().n_events += n_events;
    ri.salvaged_events += n_events;
    blocks.push_back(meta);
    salvage_end = r.pos;
  }
  close_run();

  ri.tail_torn = torn;
  ri.salvaged_runs = runs.size();
  ri.salvaged_blocks = blocks.size();
  ri.salvaged_bytes = salvage_end;
  ri.discarded_bytes = bytes.size() - salvage_end;
  if (runs.empty()) {
    return in_path + ": nothing salvageable (no complete run marker)";
  }

  std::FILE* out = std::fopen(out_path.c_str(), "wb");
  if (out == nullptr) return "cannot open " + out_path + " for write";
  const std::string footer = BuildFooterBytes(runs, blocks);
  const std::string tail = BuildTrailerBytes(salvage_end, footer);
  bool ok =
      std::fwrite(bytes.data(), 1, salvage_end, out) == salvage_end &&
      std::fwrite(footer.data(), 1, footer.size(), out) == footer.size() &&
      std::fwrite(tail.data(), 1, tail.size(), out) == tail.size();
  if (std::fclose(out) != 0) ok = false;
  if (!ok) return "short write to " + out_path;
  return "";
}

// ---- Conveniences ----------------------------------------------------------

std::string WriteStoreFile(const std::string& path,
                           const trace::TraceFile& file,
                           const StoreWriterOptions& options) {
  StoreWriter writer;
  const std::string err = writer.Open(path, options);
  if (!err.empty()) return err;
  for (const trace::RunTrace& run : file.runs) {
    writer.BeginRun(run.header);
    for (const trace::TraceEvent& e : run.events) writer.Add(e);
    writer.EndRun();
  }
  return writer.Finish();
}

std::string ReadStoreFile(const std::string& path, trace::TraceFile* out) {
  StoreReader reader;
  const std::string err = reader.Open(path);
  if (!err.empty()) return err;
  return reader.ReadAll(out);
}

}  // namespace anc::store
