#include "store/query.h"

#include <algorithm>

namespace anc::store {

using trace::EventKind;
using trace::TraceEvent;

StoreSummary Summarize(const StoreReader& reader) {
  StoreSummary summary;
  summary.legacy = reader.legacy();
  summary.file_bytes = reader.file_bytes();
  const auto& runs = reader.runs();
  const auto& blocks = reader.blocks();
  summary.runs.reserve(runs.size());
  for (std::size_t ri = 0; ri < runs.size(); ++ri) {
    RunSummary rs;
    rs.run_ordinal = ri;
    rs.header = runs[ri].header;
    rs.n_events = runs[ri].n_events;
    rs.n_blocks = runs[ri].n_blocks;
    for (std::size_t b = 0; b < runs[ri].n_blocks; ++b) {
      const BlockMeta& m = blocks[runs[ri].first_block + b];
      rs.stored_bytes += m.comp_len;
      rs.raw_bytes += m.raw_len;
      rs.max_frame = std::max(rs.max_frame, m.max_frame);
    }
    if (rs.n_blocks > 0) {
      const BlockMeta& last = blocks[runs[ri].first_block + rs.n_blocks - 1];
      rs.last_slot = last.last_slot;
      rs.acks = last.acks_cum;
      rs.arrives = last.arrives_cum;
      rs.departs = last.departs_cum;
      rs.detects = last.detects_cum;
      rs.final_population = last.population_end;
    }
    summary.n_events += rs.n_events;
    summary.stored_bytes += rs.stored_bytes;
    summary.raw_bytes += rs.raw_bytes;
    summary.runs.push_back(std::move(rs));
  }
  return summary;
}

std::string BlockTimeseriesCsv(const StoreReader& reader,
                               std::size_t run_ordinal) {
  std::string csv =
      "block,first_event,n_events,min_frame,max_frame,first_slot,last_slot,"
      "acks,arrives,departs,detects,population_end,raw_bytes,stored_bytes\n";
  if (run_ordinal >= reader.runs().size()) return csv;
  const StoredRun& run = reader.runs()[run_ordinal];
  BlockMeta prev{};  // zero counters before the first block
  for (std::size_t b = 0; b < run.n_blocks; ++b) {
    const BlockMeta& m = reader.blocks()[run.first_block + b];
    csv += std::to_string(b) + ',' + std::to_string(m.first_event) + ',' +
           std::to_string(m.n_events) + ',' + std::to_string(m.min_frame) +
           ',' + std::to_string(m.max_frame) + ',' +
           std::to_string(m.first_slot) + ',' + std::to_string(m.last_slot) +
           ',' + std::to_string(m.acks_cum - prev.acks_cum) + ',' +
           std::to_string(m.arrives_cum - prev.arrives_cum) + ',' +
           std::to_string(m.departs_cum - prev.departs_cum) + ',' +
           std::to_string(m.detects_cum - prev.detects_cum) + ',' +
           std::to_string(m.population_end) + ',' +
           std::to_string(m.raw_len) + ',' + std::to_string(m.comp_len) +
           '\n';
    prev = m;
  }
  return csv;
}

namespace {

void SeedFromBlock(const StoreReader& reader, std::size_t run_ordinal,
                   std::size_t first_block_in_run, WindowSeed* seed) {
  *seed = WindowSeed{};
  if (first_block_in_run == 0) return;
  const StoredRun& run = reader.runs()[run_ordinal];
  const BlockMeta& prev =
      reader.blocks()[run.first_block + first_block_in_run - 1];
  seed->acks = prev.acks_cum;
  seed->arrives = prev.arrives_cum;
  seed->departs = prev.departs_cum;
  seed->detects = prev.detects_cum;
  seed->population = prev.population_end;
}

bool FrameBearing(EventKind kind) {
  switch (kind) {
    case EventKind::kTdmaSlot:
    case EventKind::kRunEnd:
    case EventKind::kEpoch:  // `frame` is the epoch index, not a frame
      return false;
    default:
      return true;
  }
}

}  // namespace

std::string QueryFrameWindow(StoreReader& reader, std::size_t run_ordinal,
                             std::uint64_t frame_lo, std::uint64_t frame_hi,
                             std::vector<trace::TraceEvent>* out,
                             WindowSeed* seed) {
  out->clear();
  *seed = WindowSeed{};
  if (run_ordinal >= reader.runs().size()) {
    return "run " + std::to_string(run_ordinal) + " out of range (" +
           std::to_string(reader.runs().size()) + " runs)";
  }
  const StoredRun& run = reader.runs()[run_ordinal];
  const std::size_t start = reader.FindBlockForFrame(run_ordinal, frame_lo);
  if (start == kNoBlock) return "";  // window beyond the run's last frame
  const std::size_t start_in_run = start - run.first_block;
  SeedFromBlock(reader, run_ordinal, start_in_run, seed);
  for (std::size_t b = start_in_run; b < run.n_blocks; ++b) {
    const std::vector<TraceEvent>* events = nullptr;
    const std::string err = reader.ScanBlock(run.first_block + b, &events);
    if (!err.empty()) return err;
    bool past_window = false;
    for (const TraceEvent& e : *events) {
      if (!FrameBearing(e.kind)) continue;
      if (e.frame > frame_hi) {
        // Frames are monotone within a run: nothing later can qualify.
        past_window = true;
        break;
      }
      if (e.frame >= frame_lo) out->push_back(e);
    }
    if (past_window) break;
  }
  return "";
}

std::string QueryEpochWindow(StoreReader& reader, std::size_t run_ordinal,
                             std::uint64_t epoch_lo, std::uint64_t epoch_hi,
                             std::vector<trace::TraceEvent>* out) {
  out->clear();
  if (run_ordinal >= reader.runs().size()) {
    return "run " + std::to_string(run_ordinal) + " out of range (" +
           std::to_string(reader.runs().size()) + " runs)";
  }
  const StoredRun& run = reader.runs()[run_ordinal];
  for (std::size_t b = 0; b < run.n_blocks; ++b) {
    const std::vector<TraceEvent>* events = nullptr;
    const std::string err = reader.ScanBlock(run.first_block + b, &events);
    if (!err.empty()) return err;
    for (const TraceEvent& e : *events) {
      if (e.kind != EventKind::kEpoch) continue;
      if (e.frame > epoch_hi) return "";  // epochs are monotone
      if (e.frame >= epoch_lo) out->push_back(e);
    }
  }
  return "";
}

}  // namespace anc::store
