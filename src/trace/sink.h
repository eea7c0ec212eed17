// The pluggable sink interface the traced protocols emit into, plus the
// in-memory sink implementations (null and unbounded memory). Files are
// written by store::StoreFileSink and the v1 writer (trace/binary.h).
//
// Header-only on purpose: sim::Protocol carries a TraceContext and the
// run pool (sim::ForEachRun) drives sinks through this interface without
// linking anc_trace. Everything that needs a .cpp — the binary codec,
// JSONL rendering, diff, time series — lives in the anc_trace library
// proper; the replay verifier, which re-drives protocols, lives in the
// service layer (service/replay.h).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "trace/event.h"

namespace anc::trace {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // A run's stream is bracketed by BeginRun/EndRun; every OnEvent between
  // the two belongs to that run. A sink handed to a multi-run experiment
  // sees whole runs in run-index order, all from the calling thread (see
  // sim::ForEachRun), so it needs no locking.
  virtual void BeginRun(const RunHeader& header) = 0;
  virtual void OnEvent(const TraceEvent& event) = 0;
  virtual void EndRun() = 0;
};

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
// the run pool maintain regardless of --threads).
struct TraceFile {
  std::vector<RunTrace> runs;

  friend bool operator==(const TraceFile&, const TraceFile&) = default;
};

// Pushes one whole run into `sink`: BeginRun, the events, EndRun.
inline void PushRun(const RunTrace& run, TraceSink& sink) {
  sink.BeginRun(run.header);
  for (const TraceEvent& e : run.events) sink.OnEvent(e);
  sink.EndRun();
}

// Unbounded in-memory sink: collects complete RunTraces. Used by the
// benchmark corpora, tests and the run pool's per-run buffers.
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
