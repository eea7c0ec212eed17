#include "trace/jsonl.h"

#include <cstdio>

namespace anc::trace {

std::string JsonStr(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[7];
          std::snprintf(esc, sizeof esc, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += esc;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

std::string Num(std::uint64_t v) { return std::to_string(v); }

}  // namespace

std::string RunHeaderToJson(const RunHeader& h) {
  return "{\"type\":\"run_header\",\"run\":" + Num(h.run_index) +
         ",\"base_seed\":" + Num(h.base_seed) +
         ",\"n_tags\":" + Num(h.n_tags) +
         ",\"max_slots_per_tag\":" + Num(h.max_slots_per_tag) +
         ",\"protocol\":" + JsonStr(h.protocol) + "}";
}

std::string EventToJson(const TraceEvent& e) {
  std::string s = "{\"type\":" + JsonStr(KindName(e.kind)) +
                  ",\"reader\":" + Num(e.reader) +
                  ",\"slot\":" + Num(e.slot) + ",\"frame\":" + Num(e.frame);
  switch (e.kind) {
    case EventKind::kSlot:
      s += ",\"outcome\":" + JsonStr(OutcomeName(e.outcome)) +
           ",\"responders\":" + Num(e.responders);
      break;
    case EventKind::kFrame:
      s += ",\"n_c\":" + Num(e.n_c) + ",\"open_records\":" + Num(e.record) +
           ",\"estimate\":" +
           JsonNum(static_cast<double>(e.estimate_q8) / kEstimateScale) +
           ",\"elapsed_us\":" + Num(e.elapsed_us);
      break;
    case EventKind::kRecordOpen:
      s += ",\"record\":" + Num(e.record);
      break;
    case EventKind::kRecordResolve:
      s += ",\"record\":" + Num(e.record) + ",\"id\":" + Num(e.id_digest) +
           ",\"cascade\":" + (e.cascade ? "true" : "false");
      break;
    case EventKind::kAck:
      s += ",\"ack\":" + JsonStr(AckName(e.ack)) + ",\"id\":" + Num(e.id_digest);
      break;
    case EventKind::kInject:
      s += ",\"id\":" + Num(e.id_digest);
      break;
    case EventKind::kTdmaSlot:
      s += ",\"active_readers\":" + Num(e.responders);
      break;
    case EventKind::kRunEnd:
      s += ",\"tags_read\":" + Num(e.record) + ",\"unresolved\":" + Num(e.n_c) +
           ",\"capped\":" + (e.estimate_q8 ? "true" : "false") +
           ",\"elapsed_us\":" + Num(e.elapsed_us);
      break;
    case EventKind::kFault:
      s += ",\"fault\":" + JsonStr(FaultName(e.fault)) +
           ",\"record\":" + Num(e.record) + ",\"aux\":" + Num(e.n_c);
      break;
    case EventKind::kArrive:
      s += ",\"id\":" + Num(e.id_digest) + ",\"population\":" + Num(e.n_c);
      break;
    case EventKind::kDepart:
      s += ",\"id\":" + Num(e.id_digest) + ",\"population\":" + Num(e.n_c) +
           ",\"missed\":" + (e.estimate_q8 ? "true" : "false");
      break;
    case EventKind::kDetect:
      s += ",\"id\":" + Num(e.id_digest) +
           ",\"latency_slots\":" + Num(e.n_c) +
           ",\"ghost\":" + (e.cascade ? "true" : "false");
      break;
    case EventKind::kEpoch:
      s += ",\"population\":" + Num(e.n_c) + ",\"detected\":" + Num(e.record) +
           ",\"ghosts\":" + Num(e.responders) + ",\"staleness_p99\":" +
           JsonNum(static_cast<double>(e.estimate_q8) / kEstimateScale) +
           ",\"elapsed_us\":" + Num(e.elapsed_us);
      break;
  }
  s += "}";
  return s;
}

}  // namespace anc::trace
