// The pluggable sink interface the traced protocols emit into, plus the
// in-memory sink implementations (null and unbounded memory). Files are
// written by store::StoreFileSink and the v1 writer (trace/binary.h).
//
// Header-only on purpose: sim::Protocol carries a TraceContext and the
// experiment runner drives sinks through this interface, but anc_sim must
// not link against anc_trace (anc_trace's replay verifier depends on
// anc_sim). Everything that needs a .cpp — the binary codec, JSONL
// rendering, the multi-run recorder, diff, time series, replay — lives in
// the anc_trace library proper.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "trace/event.h"

namespace anc::trace {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // A run's stream is bracketed by BeginRun/EndRun; every OnEvent between
  // the two belongs to that run. Sinks are driven by exactly one thread
  // per run (the worker executing that run).
  virtual void BeginRun(const RunHeader& header) = 0;
  virtual void OnEvent(const TraceEvent& event) = 0;
  virtual void EndRun() = 0;
};

// Creates the sink for one run of a multi-run experiment. Invoked
// concurrently from worker threads when the runner is parallel, so
// implementations must be thread-safe across distinct run indices.
using TraceSinkFactory =
    std::function<std::unique_ptr<TraceSink>(std::size_t run_index)>;

// Attachment point a protocol holds: a borrowed sink plus the reader id
// this protocol's events carry (deployments re-attach each per-reader
// protocol with its own id). Default-constructed = tracing off; emission
// sites reduce to a null check.
struct TraceContext {
  TraceSink* sink = nullptr;
  std::uint32_t reader = 0;

  explicit operator bool() const { return sink != nullptr; }

  void Emit(TraceEvent event) const {
    event.reader = reader;
    sink->OnEvent(event);
  }

  // The same sink viewed as a different reader (deployment fan-out).
  TraceContext WithReader(std::uint32_t id) const { return {sink, id}; }
};

// The zero-cost default: discards everything. Protocols treat a null sink
// pointer as "off" without virtual calls; this class exists for call sites
// that want a real sink object unconditionally.
class NullSink final : public TraceSink {
 public:
  void BeginRun(const RunHeader&) override {}
  void OnEvent(const TraceEvent&) override {}
  void EndRun() override {}
};

// One decoded run: header + its full event stream.
struct RunTrace {
  RunHeader header;
  std::vector<TraceEvent> events;

  friend bool operator==(const RunTrace&, const RunTrace&) = default;
};

// A whole trace: runs in run-index order (the order the binary file and
// the multi-run recorder maintain regardless of --threads).
struct TraceFile {
  std::vector<RunTrace> runs;

  friend bool operator==(const TraceFile&, const TraceFile&) = default;
};

// Unbounded in-memory sink: collects complete RunTraces. Used by the
// replay verifier and tests.
class MemorySink final : public TraceSink {
 public:
  void BeginRun(const RunHeader& header) override {
    runs_.push_back(RunTrace{header, {}});
  }
  void OnEvent(const TraceEvent& event) override {
    if (!runs_.empty()) runs_.back().events.push_back(event);
  }
  void EndRun() override {}

  const std::vector<RunTrace>& runs() const { return runs_; }
  TraceFile TakeFile() { return TraceFile{std::move(runs_)}; }

 private:
  std::vector<RunTrace> runs_;
};

}  // namespace anc::trace
