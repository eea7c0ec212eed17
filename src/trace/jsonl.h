// JSONL rendering of trace events, one JSON object per line (what
// `trace_inspect filter --format=jsonl` prints). Line shapes:
//
//   {"type":"run_header","run":0,"base_seed":1,"n_tags":200,
//    "max_slots_per_tag":100,"protocol":"FCAT-2"}
//   {"type":"slot","reader":0,"slot":12,"frame":1,
//    "outcome":"collision","responders":3}
//   {"type":"frame","reader":0,"slot":30,"frame":1,"n_c":7,
//    "open_records":7,"estimate":812.25,"elapsed_us":91545}
//   ... (one shape per trace/event.h kind)
//
// This is the human/jq-friendly export. Traces are written as ANCSTORE
// (store/container.h); trace/binary.h's v1 rows are its reference
// encoder.
#pragma once

#include <string>
#include <string_view>

#include "trace/sink.h"

namespace anc::trace {

// `s` as a JSON string literal (RFC 8259): `"`, `\` and the control
// bytes U+0000..U+001F are escaped, every other byte passes through.
// The bench harnesses' JSON lines quote their strings through it too.
std::string JsonStr(std::string_view s);

// `v` as a JSON number with every bit of the double kept (%.17g). The
// bench harnesses' JSON lines format their numbers through it too.
std::string JsonNum(double v);

// The JSONL rendering of one event (shared with `trace_inspect filter
// --format=jsonl`). No trailing newline.
std::string EventToJson(const TraceEvent& event);
std::string RunHeaderToJson(const RunHeader& header);

}  // namespace anc::trace
