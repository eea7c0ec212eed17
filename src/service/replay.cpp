#include "service/replay.h"

#include <utility>

namespace anc::service {

std::string ServiceBaseName(const std::string& protocol) {
  const auto tilde = protocol.find('~');
  return tilde == std::string::npos ? protocol : protocol.substr(0, tilde);
}

std::string ServiceLabel(const std::string& protocol) {
  const auto tilde = protocol.find('~');
  return tilde == std::string::npos ? std::string() : protocol.substr(tilde + 1);
}

ReplayReport VerifyReplay(const trace::RunHeader& header,
                          trace::EventSource recorded,
                          const sim::ProtocolFactory& factory) {
  const auto run = static_cast<std::size_t>(header.run_index);
  trace::DiffSink sink(header, std::move(recorded), run);
  ReplayReport report;
  std::string what = "replay";
  if (IsServiceRun(header)) {
    const std::string label = ServiceLabel(header.protocol);
    ServiceConfig config;
    if (!LookupServiceProfile(label, &config)) {
      report.diff.run_index = run;
      report.diff.event_index = static_cast<std::size_t>(-1);
      report.diff.message = report.message =
          "unknown service profile '" + label + "' in protocol '" +
          header.protocol + "' (known: " + ServiceProfileList() + ")";
      return report;
    }
    SoakOptions options;
    options.n_initial = header.n_tags;
    options.base_seed = header.base_seed;
    RunSoakSingle(factory, config, options, run, &sink);
    what = "service replay";
  } else {
    sim::ExperimentOptions options;
    options.n_tags = header.n_tags;
    options.base_seed = header.base_seed;
    options.max_slots_per_tag = header.max_slots_per_tag;
    sim::RunSingle(factory, options, run, &sink);
  }
  report.diff = sink.diff();
  report.ok = report.diff.identical;
  report.message =
      report.ok ? what + " identical: " +
                      std::to_string(sink.events_pushed()) +
                      " events reproduced (run " +
                      std::to_string(header.run_index) + ", protocol " +
                      header.protocol + ")"
                : what + " diverged: " + report.diff.message;
  return report;
}

ReplayReport VerifyReplay(const trace::RunTrace& recorded,
                          const sim::ProtocolFactory& factory) {
  return VerifyReplay(recorded.header, trace::EventsOf(recorded), factory);
}

ReplayReport VerifyReplay(const trace::TraceFile& recorded,
                          const sim::ProtocolFactory& factory) {
  ReplayReport report;
  report.message = "trace contains no runs";
  std::size_t events = 0;
  for (const trace::RunTrace& run : recorded.runs) {
    report = VerifyReplay(run, factory);
    if (!report.ok) return report;
    events += run.events.size();
  }
  if (report.ok) {
    report.message = "replay identical: " + std::to_string(events) +
                     " events across " + std::to_string(recorded.runs.size()) +
                     " runs";
  }
  return report;
}

}  // namespace anc::service
