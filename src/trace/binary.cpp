#include "trace/binary.h"

#include <cstddef>
#include <cstdio>
#include <limits>

namespace anc::trace {

namespace wire {

void PutVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void PutByte(std::string& out, std::uint8_t b) {
  out.push_back(static_cast<char>(b));
}

}  // namespace wire

namespace {

constexpr char kRunMarker = 'R';
constexpr char kEndOfRun = 0x00;

using Type = FieldSpec::Type;

// A field's TraceEvent member, as FieldSpec's offset and width.
#define AT(member)                                         \
  static_cast<std::uint16_t>(offsetof(TraceEvent, member)), \
      static_cast<std::uint8_t>(sizeof(TraceEvent::member))

// Per-kind payload schemas, wire order. This table *is* the v1 format:
// EncodeEvent/DecodeEvent below and the store's columnar block codec all
// walk it, so a new event kind (or field) is added here exactly once.
constexpr FieldSpec kSlotFields[] = {
    {Type::kByte, 2, false, AT(outcome)},
    {Type::kVarint, 0, false, AT(responders)},
};
constexpr FieldSpec kFrameFields[] = {
    {Type::kVarint, 0, false, AT(n_c)},
    {Type::kVarint, 0, false, AT(record)},  // open records
    {Type::kVarint, 0, false, AT(estimate_q8)},
    {Type::kVarint, 0, true, AT(elapsed_us)},  // cumulative clock
};
constexpr FieldSpec kRecordOpenFields[] = {
    {Type::kVarint, 0, false, AT(record)},
};
constexpr FieldSpec kRecordResolveFields[] = {
    {Type::kVarint, 0, false, AT(record)},
    {Type::kVarint, 0, false, AT(id_digest)},
    {Type::kByte, 1, false, AT(cascade)},
};
constexpr FieldSpec kAckFields[] = {
    {Type::kByte, 5, false, AT(ack)},
    {Type::kVarint, 0, false, AT(id_digest)},
};
constexpr FieldSpec kInjectFields[] = {
    {Type::kVarint, 0, false, AT(id_digest)},
};
constexpr FieldSpec kTdmaSlotFields[] = {
    {Type::kVarint, 0, false, AT(responders)},  // active readers
};
constexpr FieldSpec kRunEndFields[] = {
    {Type::kVarint, 0, false, AT(record)},  // tags_read
    {Type::kVarint, 0, false, AT(n_c)},  // unresolved
    {Type::kVarint, 0, false, AT(estimate_q8)},  // capped flag
    {Type::kVarint, 0, true, AT(elapsed_us)},  // cumulative clock
};
constexpr FieldSpec kFaultFields[] = {
    {Type::kByte, 8, false, AT(fault)},  // sub-kind
    {Type::kVarint, 0, false, AT(record)},
    {Type::kVarint, 0, false, AT(n_c)},  // aux
};
constexpr FieldSpec kArriveFields[] = {
    {Type::kVarint, 0, false, AT(id_digest)},
    {Type::kVarint, 0, false, AT(n_c)},  // population
};
constexpr FieldSpec kDepartFields[] = {
    {Type::kVarint, 0, false, AT(id_digest)},
    {Type::kVarint, 0, false, AT(n_c)},  // population
    {Type::kByte, 1, false, AT(estimate_q8)},  // missed flag
};
constexpr FieldSpec kDetectFields[] = {
    {Type::kVarint, 0, false, AT(id_digest)},
    {Type::kVarint, 0, false, AT(n_c)},  // latency
    {Type::kByte, 1, false, AT(cascade)},  // ghost flag
};
constexpr FieldSpec kEpochFields[] = {
    {Type::kVarint, 0, false, AT(n_c)},  // population
    {Type::kVarint, 0, false, AT(record)},  // detected
    {Type::kVarint, 0, false, AT(responders)},  // ghosts
    {Type::kVarint, 0, false, AT(estimate_q8)},  // staleness p99
    {Type::kVarint, 0, true, AT(elapsed_us)},  // cumulative clock
};

#undef AT

std::string FileHeaderBytes() {
  std::string out(kTraceMagic);
  wire::PutVarint(out, kTraceVersion);
  return out;
}

}  // namespace

std::span<const FieldSpec> EventFields(EventKind kind) {
  switch (kind) {
    case EventKind::kSlot: return kSlotFields;
    case EventKind::kFrame: return kFrameFields;
    case EventKind::kRecordOpen: return kRecordOpenFields;
    case EventKind::kRecordResolve: return kRecordResolveFields;
    case EventKind::kAck: return kAckFields;
    case EventKind::kInject: return kInjectFields;
    case EventKind::kTdmaSlot: return kTdmaSlotFields;
    case EventKind::kRunEnd: return kRunEndFields;
    case EventKind::kFault: return kFaultFields;
    case EventKind::kArrive: return kArriveFields;
    case EventKind::kDepart: return kDepartFields;
    case EventKind::kDetect: return kDetectFields;
    case EventKind::kEpoch: return kEpochFields;
  }
  return {};
}

bool ValidEventKind(std::uint8_t kind_byte) {
  return kind_byte >= static_cast<std::uint8_t>(EventKind::kSlot) &&
         kind_byte <= static_cast<std::uint8_t>(EventKind::kEpoch);
}

void EncodeEvent(std::string& out, const TraceEvent& e) {
  wire::PutByte(out, static_cast<std::uint8_t>(e.kind));
  wire::PutVarint(out, e.reader);
  wire::PutVarint(out, e.slot);
  wire::PutVarint(out, e.frame);
  const auto fields = EventFields(e.kind);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::uint64_t v = GetEventField(e, fields[i]);
    if (fields[i].type == Type::kByte) {
      wire::PutByte(out, static_cast<std::uint8_t>(v));
    } else {
      wire::PutVarint(out, v);
    }
  }
}

bool DecodeEvent(wire::Reader& r, std::uint8_t kind_byte, TraceEvent* e) {
  if (!ValidEventKind(kind_byte)) return false;
  e->kind = static_cast<EventKind>(kind_byte);
  const std::uint64_t reader = r.Varint();
  if (reader > std::numeric_limits<std::uint32_t>::max()) return false;
  e->reader = static_cast<std::uint32_t>(reader);
  e->slot = r.Varint();
  e->frame = r.Varint();
  for (const FieldSpec& f : EventFields(e->kind)) {
    const std::uint64_t v = f.type == Type::kByte ? r.Byte() : r.Varint();
    if (v > f.Limit()) return false;
    SetEventField(*e, f, v);
  }
  return r.ok;
}

std::string EncodeRun(const RunTrace& run) {
  std::string out;
  out.push_back(kRunMarker);
  wire::PutVarint(out, run.header.run_index);
  wire::PutVarint(out, run.header.base_seed);
  wire::PutVarint(out, run.header.n_tags);
  wire::PutVarint(out, run.header.max_slots_per_tag);
  wire::PutVarint(out, run.header.protocol.size());
  out += run.header.protocol;
  for (const TraceEvent& e : run.events) EncodeEvent(out, e);
  out.push_back(kEndOfRun);
  return out;
}

std::string EncodeTrace(const TraceFile& file) {
  std::string out = FileHeaderBytes();
  for (const RunTrace& run : file.runs) out += EncodeRun(run);
  return out;
}

std::string DecodeTrace(std::string_view bytes, TraceFile* out) {
  out->runs.clear();
  if (bytes.size() < kTraceMagic.size() ||
      bytes.substr(0, kTraceMagic.size()) != kTraceMagic) {
    return "bad magic: not an ANCTRACE file";
  }
  wire::Reader r{bytes, kTraceMagic.size()};
  const std::uint64_t version = r.Varint();
  if (!r.ok) return "truncated header";
  if (version != kTraceVersion) {
    return "unsupported trace version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kTraceVersion) + ")";
  }
  while (!r.AtEnd()) {
    if (r.Byte() != kRunMarker) {
      return "corrupt run marker at offset " + std::to_string(r.pos - 1);
    }
    RunTrace run;
    run.header.run_index = r.Varint();
    run.header.base_seed = r.Varint();
    run.header.n_tags = r.Varint();
    run.header.max_slots_per_tag = r.Varint();
    const std::uint64_t name_len = r.Varint();
    if (!r.ok || r.pos + name_len > bytes.size()) {
      return "truncated run header at offset " + std::to_string(r.pos);
    }
    run.header.protocol = std::string(bytes.substr(r.pos, name_len));
    r.pos += name_len;
    for (;;) {
      const std::uint8_t kind = r.Byte();
      if (!r.ok) return "unterminated run block at offset " +
                        std::to_string(r.pos);
      if (kind == static_cast<std::uint8_t>(kEndOfRun)) break;
      TraceEvent e;
      if (!DecodeEvent(r, kind, &e)) {
        return "corrupt event at offset " + std::to_string(r.pos);
      }
      run.events.push_back(e);
    }
    out->runs.push_back(std::move(run));
  }
  return "";
}

std::string ReadTraceFile(const std::string& path, TraceFile* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return "cannot open " + path;
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  const std::string err = DecodeTrace(bytes, out);
  return err.empty() ? "" : path + ": " + err;
}

namespace {

std::string AppendBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) return "cannot open " + path + " for append";
  // A fresh (or truncated-empty) file needs the versioned header first.
  std::string payload;
  if (std::ftell(f) == 0) payload = FileHeaderBytes();
  payload += bytes;
  const bool ok =
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  std::fclose(f);
  return ok ? "" : "short write to " + path;
}

}  // namespace

std::string WriteTraceFile(const std::string& path, const TraceFile& file) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return "cannot open " + path + " for write";
  const std::string bytes = EncodeTrace(file);
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  return ok ? "" : "short write to " + path;
}

std::string AppendRunsToFile(const std::string& path,
                             std::span<const RunTrace> runs) {
  std::string bytes;
  for (const RunTrace& run : runs) bytes += EncodeRun(run);
  return AppendBytes(path, bytes);
}

void BinaryFileSink::EndRun() {
  const std::string err = AppendBytes(path_, EncodeRun(current_));
  if (!err.empty()) error_ = err;
  current_ = RunTrace{};
}

}  // namespace anc::trace
