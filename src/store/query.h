// Index-backed queries over an opened StoreReader: the `trace_inspect
// query`/`serve` answer path. Summarize() and BlockTimeseriesCsv() read
// only the footer index — zero block decodes regardless of trace size.
// The window queries decode just the blocks that can overlap the request,
// and build only the events they return (picked from the kind and frame
// columns, see BlockColumns): a frame window starts at FindBlockForFrame
// (O(log n) seek) and stops at the first frame past the window; an epoch
// window stops at the first epoch past the window. A frame window's
// RunCounters, the footer's query seed, come from the preceding block's
// footer entry instead of a replay of the run prefix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "store/container.h"

namespace anc::store {

struct RunSummary {
  std::size_t run_ordinal = 0;
  trace::RunHeader header;
  std::uint64_t n_events = 0;
  std::uint64_t n_blocks = 0;
  std::uint64_t stored_bytes = 0;  // block payload bytes on disk
  std::uint64_t raw_bytes = 0;     // block payload bytes before compression
  std::uint64_t max_frame = 0;
  std::uint64_t last_slot = 0;
  RunCounters counters;  // final: the run's last footer entry
};

struct StoreSummary {
  bool legacy = false;
  std::uint64_t file_bytes = 0;
  std::uint64_t n_events = 0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::vector<RunSummary> runs;
};

// Pure index walk (no block decodes).
StoreSummary Summarize(const StoreReader& reader);

// Block-granularity timeseries for one run, straight from the index:
// one CSV row per block with frame/slot coverage, event count, and the
// per-block deltas of the cumulative counters. Header row included.
std::string BlockTimeseriesCsv(const StoreReader& reader,
                               std::size_t run_ordinal);

// The RunCounters in force just before a window's first block: the
// footer's query seed, read from the preceding block's entry (all zero at
// the start of a run).
using WindowSeed = RunCounters;

// Events of `run_ordinal` whose frame lies in [frame_lo, frame_hi]
// (frame-bearing kinds only; kEpoch uses epoch numbering and kTdmaSlot/
// kRunEnd carry no frame, so those kinds are excluded). Decodes only the
// overlapping blocks. Returns "" on success.
std::string QueryFrameWindow(StoreReader& reader, std::size_t run_ordinal,
                             std::uint64_t frame_lo, std::uint64_t frame_hi,
                             std::vector<trace::TraceEvent>* out,
                             WindowSeed* seed);

// kEpoch events of `run_ordinal` with epoch index in [epoch_lo, epoch_hi].
// Stops decoding at the first epoch past the window. Returns "" on success.
std::string QueryEpochWindow(StoreReader& reader, std::size_t run_ordinal,
                             std::uint64_t epoch_lo, std::uint64_t epoch_hi,
                             std::vector<trace::TraceEvent>* out);

}  // namespace anc::store
