// Structural trace comparison with a first-divergence report — the
// regression primitive behind `trace_inspect diff` (CI compares a fresh
// smoke trace against a committed golden) and the replay verifier
// (service/replay.h). DiffRuns and DiffTraces push into DiffSink too.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "trace/sink.h"

namespace anc::trace {

struct TraceDiff {
  bool identical = false;
  // First point of divergence (valid when !identical). event_index is
  // SIZE_MAX for header- or run-count-level divergence.
  std::size_t run_index = 0;
  std::size_t event_index = 0;
  // The two runs' events at event_index. A run that had already ended
  // has none there (a length mismatch); both are empty for header- or
  // run-count-level divergence.
  std::optional<TraceEvent> a, b;
  // Human-readable description of the divergence ("" when identical).
  std::string message;
};

// Pulls the next event of an expected run: the event, valid until the
// next call, or null at the end of the run.
using EventSource = std::function<const TraceEvent*()>;

// The events of an in-memory run, which must outlive the source.
EventSource EventsOf(const RunTrace& run);

// Compares the one run pushed into it ("b") with an expected run ("a")
// pulled from `expected` one event at a time, so neither run need be
// resident. Once the first divergence is found the rest of the push is
// only counted. After EndRun, diff() is the verdict; a sink takes one
// run.
class DiffSink final : public TraceSink {
 public:
  DiffSink(RunHeader expected_header, EventSource expected,
           std::size_t run_index);

  void BeginRun(const RunHeader& header) override;
  void OnEvent(const TraceEvent& event) override;
  void EndRun() override;

  const TraceDiff& diff() const { return diff_; }
  std::size_t events_pushed() const { return pushed_; }

 private:
  std::string Prefix() const;

  RunHeader header_;
  EventSource expected_;
  TraceDiff diff_;
  bool settled_ = false;
  std::size_t pushed_ = 0;
};

TraceDiff DiffRuns(const RunTrace& a, const RunTrace& b,
                   std::size_t run_index = 0);
TraceDiff DiffTraces(const TraceFile& a, const TraceFile& b);

}  // namespace anc::trace
