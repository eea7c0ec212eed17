#include "trace/diff.h"

#include <algorithm>
#include <utility>

namespace anc::trace {
namespace {

constexpr std::size_t kNoEvent = static_cast<std::size_t>(-1);

std::string DescribeHeader(const RunHeader& h) {
  return "{run=" + std::to_string(h.run_index) +
         " base_seed=" + std::to_string(h.base_seed) +
         " n_tags=" + std::to_string(h.n_tags) +
         " max_slots_per_tag=" + std::to_string(h.max_slots_per_tag) +
         " protocol=" + h.protocol + "}";
}

}  // namespace

EventSource EventsOf(const RunTrace& run) {
  return [&run, next = std::size_t{0}]() mutable -> const TraceEvent* {
    return next < run.events.size() ? &run.events[next++] : nullptr;
  };
}

DiffSink::DiffSink(RunHeader expected_header, EventSource expected,
                   std::size_t run_index)
    : header_(std::move(expected_header)), expected_(std::move(expected)) {
  diff_.run_index = run_index;
  diff_.event_index = kNoEvent;
  diff_.message = Prefix() + "no run was pushed";
}

std::string DiffSink::Prefix() const {
  return "run " + std::to_string(diff_.run_index) + ": ";
}

void DiffSink::BeginRun(const RunHeader& header) {
  if (header != header_) {
    settled_ = true;
    diff_.message = Prefix() + "headers differ:\n  a: " +
                    DescribeHeader(header_) + "\n  b: " +
                    DescribeHeader(header);
  }
}

void DiffSink::OnEvent(const TraceEvent& event) {
  const std::size_t index = pushed_++;
  // Past the first divergence, or past the end of a: only count.
  if (settled_ || diff_.b) return;
  const TraceEvent* expected = expected_();
  if (expected != nullptr && *expected == event) return;
  diff_.event_index = index;
  diff_.b = event;
  if (expected == nullptr) return;  // reported at EndRun with the counts
  settled_ = true;
  diff_.a = *expected;
  diff_.message = Prefix() + "first divergence at event " +
                  std::to_string(index) + ":\n  a: " + Describe(*expected) +
                  "\n  b: " + Describe(event);
}

void DiffSink::EndRun() {
  if (settled_) return;
  settled_ = true;
  std::size_t a_events = diff_.event_index;  // b continued past a's end
  if (!diff_.b) {
    const TraceEvent* extra = expected_();
    if (extra == nullptr) {
      diff_.identical = true;
      diff_.message.clear();
      return;
    }
    diff_.event_index = pushed_;
    diff_.a = *extra;
    for (a_events = pushed_ + 1; expected_() != nullptr;) ++a_events;
  }
  const bool a_longer = diff_.a.has_value();
  diff_.message = Prefix() + "event streams agree for " +
                  std::to_string(diff_.event_index) + " events, then " +
                  (a_longer ? "a" : "b") + " continues with:\n  " +
                  Describe(a_longer ? *diff_.a : *diff_.b) + "\n(a has " +
                  std::to_string(a_events) + " events, b has " +
                  std::to_string(pushed_) + " events)";
}

TraceDiff DiffRuns(const RunTrace& a, const RunTrace& b,
                   std::size_t run_index) {
  DiffSink sink(a.header, EventsOf(a), run_index);
  PushRun(b, sink);
  return sink.diff();
}

TraceDiff DiffTraces(const TraceFile& a, const TraceFile& b) {
  const std::size_t common = std::min(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < common; ++r) {
    TraceDiff diff = DiffRuns(a.runs[r], b.runs[r], r);
    if (!diff.identical) return diff;
  }
  if (a.runs.size() != b.runs.size()) {
    TraceDiff diff;
    diff.run_index = common;
    diff.event_index = kNoEvent;
    diff.message = "run counts differ: a has " + std::to_string(a.runs.size()) +
                   " runs, b has " + std::to_string(b.runs.size());
    return diff;
  }
  TraceDiff diff;
  diff.identical = true;
  return diff;
}

}  // namespace anc::trace
