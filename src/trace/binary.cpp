#include "trace/binary.h"

#include <cstddef>
#include <limits>

namespace anc::trace {

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
  ser::PutByte(out, static_cast<std::uint8_t>(e.kind));
  ser::PutVarint(out, e.reader);
  ser::PutVarint(out, e.slot);
  ser::PutVarint(out, e.frame);
  const auto fields = EventFields(e.kind);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::uint64_t v = GetEventField(e, fields[i]);
    if (fields[i].type == Type::kByte) {
      ser::PutByte(out, static_cast<std::uint8_t>(v));
    } else {
      ser::PutVarint(out, v);
    }
  }
}

bool DecodeEvent(ser::Reader& r, std::uint8_t kind_byte, TraceEvent* e) {
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

void PutRunHeader(std::string& out, const RunHeader& h) {
  ser::PutVarint(out, h.run_index);
  ser::PutVarint(out, h.base_seed);
  ser::PutVarint(out, h.n_tags);
  ser::PutVarint(out, h.max_slots_per_tag);
  ser::PutBytes(out, h.protocol);
}

bool GetRunHeader(ser::Reader& r, RunHeader* h) {
  h->run_index = r.Varint();
  h->base_seed = r.Varint();
  h->n_tags = r.Varint();
  h->max_slots_per_tag = r.Varint();
  h->protocol = std::string(r.Bytes());
  return r.ok;
}

std::string EncodeRun(const RunTrace& run) {
  std::string out;
  out.push_back(kRunMarker);
  PutRunHeader(out, run.header);
  for (const TraceEvent& e : run.events) EncodeEvent(out, e);
  out.push_back(kEndOfRun);
  return out;
}

std::string EncodeTrace(const TraceFile& file) {
  std::string out(kTraceMagic);
  ser::PutVarint(out, kTraceVersion);
  for (const RunTrace& run : file.runs) out += EncodeRun(run);
  return out;
}

}  // namespace anc::trace
