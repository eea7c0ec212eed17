// Compact binary trace format, version 1.
//
// Layout:
//   file   := magic[8]="ANCTRACE" varint(version) runblock*
//   block  := 'R' varint(run_index) varint(base_seed) varint(n_tags)
//             varint(max_slots_per_tag) varint(len) name[len] event* 0x00
//   event  := kind[1] varint(reader) varint(slot) varint(frame)
//             kind-specific varint fields (see binary.cpp)
//
// All integers are unsigned LEB128 varints; the two time-like payloads are
// already integers (Q8 estimator, microseconds — see trace/event.h), so
// the format is byte-for-byte deterministic across thread counts, runs and
// compilers. Every trace file is written as an ANCSTORE container
// (store/container.h); v1 survives as the reference encoding below, which
// `trace_inspect decompress` writes and store::StoreReader still opens.
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "common/serialize.h"
#include "trace/sink.h"

namespace anc::trace {

inline constexpr std::string_view kTraceMagic = "ANCTRACE";
inline constexpr std::uint64_t kTraceVersion = 1;

// The per-kind payload schema below is shared with the block-compressed
// container (src/store), which re-serializes the same fields in a
// column-major layout: it is the single source of truth for "what bytes
// does event kind K carry". Both formats encode through common/serialize.h.

// One payload field of an event kind (the fields after the common
// reader/slot/frame prefix), in wire order.
struct FieldSpec {
  enum class Type : std::uint8_t { kByte, kVarint };
  Type type = Type::kVarint;
  // Highest value a kByte field may carry on the wire (enum or flag
  // range); ignored for kVarint fields, which are bounded by their
  // member's width (see Limit()).
  std::uint64_t max_value = 0xFF;
  // True for cumulative-clock fields (elapsed_us): the store's block
  // codec delta-encodes these against the previous event of the same
  // kind, which is what makes soak traces compress.
  bool cumulative_clock = false;
  // The TraceEvent member the field maps to: byte offset and width (1, 4
  // or 8 bytes).
  std::uint16_t offset = 0;
  std::uint8_t width = 8;

  // A kByte field with range 0..1 is a flag, whatever its member's type.
  bool IsFlag() const { return type == Type::kByte && max_value == 1; }

  // Highest value a decoder accepts for the field. Anything larger would
  // not survive the store into its member, so the decoded event would
  // re-encode to other bytes.
  std::uint64_t Limit() const {
    if (type == Type::kByte) return max_value;
    return width >= 8 ? ~0ull : (1ull << (8 * width)) - 1;
  }
};

// Payload schema for `kind` in exact wire order. Every kind the format
// knows has an entry; an empty span with ValidEventKind()==false means
// the kind byte itself is corrupt.
std::span<const FieldSpec> EventFields(EventKind kind);
bool ValidEventKind(std::uint8_t kind_byte);

// Field accessors through the schema's member map. Flags are normalized
// to 0/1 both ways, exactly as the v1 encoder always did.
inline std::uint64_t GetEventField(const TraceEvent& e, const FieldSpec& f) {
  const char* p = reinterpret_cast<const char*>(&e) + f.offset;
  std::uint64_t v = 0;
  switch (f.width) {
    case 1:
      v = static_cast<std::uint8_t>(*p);
      break;
    case 4: {
      std::uint32_t w;
      std::memcpy(&w, p, 4);
      v = w;
      break;
    }
    default:
      std::memcpy(&v, p, 8);
  }
  return f.IsFlag() ? v != 0 : v;
}

inline void SetEventField(TraceEvent& e, const FieldSpec& f,
                          std::uint64_t v) {
  if (f.IsFlag()) v = v != 0;
  char* p = reinterpret_cast<char*>(&e) + f.offset;
  switch (f.width) {
    case 1:
      *p = static_cast<char>(v);
      return;
    case 4: {
      const auto w = static_cast<std::uint32_t>(v);
      std::memcpy(p, &w, 4);
      return;
    }
    default:
      std::memcpy(p, &v, 8);
  }
}

// Single-event codec over the schema (the v1 run-block payload format:
// kind byte, reader/slot/frame varints, then the schema fields).
// DecodeEvent returns false on a malformed or truncated event.
void EncodeEvent(std::string& out, const TraceEvent& e);
bool DecodeEvent(ser::Reader& r, std::uint8_t kind_byte, TraceEvent* e);

// A run header's fields in wire order: the v1 run block after its 'R'
// marker, and the store's run markers, footer entries and writer
// snapshot. GetRunHeader returns r.ok.
void PutRunHeader(std::string& out, const RunHeader& h);
bool GetRunHeader(ser::Reader& r, RunHeader* h);

// The v1 reference encoder: the bytes a v1 file holds, read back through
// store::StoreReader, which opens v1 traces as well as ANCSTORE files.
std::string EncodeRun(const RunTrace& run);
std::string EncodeTrace(const TraceFile& file);  // header + all run blocks

}  // namespace anc::trace
