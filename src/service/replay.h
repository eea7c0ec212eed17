// Replay verification: re-drives a protocol from a trace's recorded
// seeding (RunHeader) and asserts the regenerated event stream is
// identical, event for event, to the recorded one — the determinism
// contract that makes a trace a debugging artifact rather than a log.
// A divergence means either the build changed behaviour since the trace
// was recorded (a regression, localized to the first divergent slot) or
// the supplied factory does not match the recorded protocol.
//
// The header picks the driver: sim::RunSingle, or for a service-mode soak
// RunSoakSingle under the service profile its protocol name's "~<label>"
// suffix names. Either pushes straight into a trace::DiffSink, so neither
// the recorded nor the regenerated run is ever resident.
#pragma once

#include <string>

#include "service/service.h"
#include "trace/diff.h"
#include "trace/sink.h"

namespace anc::service {

// "FCAT-2~soak" -> base "FCAT-2", label "soak". A name without '~' is
// not a service run (label "").
std::string ServiceBaseName(const std::string& protocol);
std::string ServiceLabel(const std::string& protocol);
inline bool IsServiceRun(const trace::RunHeader& header) {
  return header.protocol.find('~') != std::string::npos;
}

struct ReplayReport {
  bool ok = false;
  // When !ok: the first divergence (see TraceDiff).
  trace::TraceDiff diff;
  std::string message;  // verdict summary, always set
};

// Re-runs the run `header` describes through `factory` (which must build
// the protocol of the header's base name) against the events `recorded`
// pulls. An unknown service profile fails at header level.
ReplayReport VerifyReplay(const trace::RunHeader& header,
                          trace::EventSource recorded,
                          const sim::ProtocolFactory& factory);
ReplayReport VerifyReplay(const trace::RunTrace& recorded,
                          const sim::ProtocolFactory& factory);

// Verifies every run of a trace file; stops at the first failure.
ReplayReport VerifyReplay(const trace::TraceFile& recorded,
                          const sim::ProtocolFactory& factory);

}  // namespace anc::service
