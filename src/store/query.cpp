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
      rs.counters = last.cum;
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
  RunCounters prev;  // zero before the first block
  for (std::size_t b = 0; b < run.n_blocks; ++b) {
    const BlockMeta& m = reader.blocks()[run.first_block + b];
    csv += std::to_string(b) + ',' + std::to_string(m.first_event) + ',' +
           std::to_string(m.n_events) + ',' + std::to_string(m.min_frame) +
           ',' + std::to_string(m.max_frame) + ',' +
           std::to_string(m.first_slot) + ',' + std::to_string(m.last_slot) +
           ',' + std::to_string(m.cum.acks - prev.acks) + ',' +
           std::to_string(m.cum.arrives - prev.arrives) + ',' +
           std::to_string(m.cum.departs - prev.departs) + ',' +
           std::to_string(m.cum.detects - prev.detects) + ',' +
           std::to_string(m.cum.population) + ',' +
           std::to_string(m.raw_len) + ',' + std::to_string(m.comp_len) +
           '\n';
    prev = m.cum;
  }
  return csv;
}

namespace {

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

// What a window query does with one event, judged from its kind and
// frame alone.
enum class Pick : std::uint8_t { kSkip, kKeep, kStop };

// Appends events [first, last) of `block` to *out.
void AppendRange(const BlockColumns& block, std::size_t first,
                 std::size_t last, std::vector<TraceEvent>* out) {
  if (first == last) return;
  const std::size_t at = out->size();
  out->resize(at + (last - first));
  block.Materialize(first, last, out->data() + at);
}

// Decodes blocks [first_block, end_block) in order and appends the events
// `pick` keeps until the first it stops at, building only the kept ones.
// Every scanned block is decoded and checked in full, so a corrupt block
// fails the query even when the window misses its damage.
template <typename PickFn>
std::string AppendPicked(StoreReader& reader, std::size_t first_block,
                         std::size_t end_block, PickFn pick,
                         std::vector<TraceEvent>* out) {
  for (std::size_t b = first_block; b < end_block; ++b) {
    const BlockColumns* block = nullptr;
    const std::string err = reader.ReadBlockColumns(b, &block);
    if (!err.empty()) return err;
    std::size_t kept = 0;  // first event of the current run of kept events
    for (std::size_t i = 0; i < block->size(); ++i) {
      const Pick p = pick(block->kind(i), block->frame(i));
      if (p == Pick::kKeep) continue;
      AppendRange(*block, kept, i, out);
      if (p == Pick::kStop) return "";
      kept = i + 1;
    }
    AppendRange(*block, kept, block->size(), out);
  }
  return "";
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
  // Seed from the preceding block of the run: zero at its first.
  if (start > run.first_block) *seed = reader.blocks()[start - 1].cum;
  return AppendPicked(
      reader, start, run.first_block + run.n_blocks,
      [&](EventKind kind, std::uint64_t frame) {
        if (!FrameBearing(kind)) return Pick::kSkip;
        // Frames are monotone within a run: nothing later can qualify.
        if (frame > frame_hi) return Pick::kStop;
        return frame >= frame_lo ? Pick::kKeep : Pick::kSkip;
      },
      out);
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
  return AppendPicked(
      reader, run.first_block, run.first_block + run.n_blocks,
      [&](EventKind kind, std::uint64_t epoch) {
        if (kind != EventKind::kEpoch) return Pick::kSkip;
        if (epoch > epoch_hi) return Pick::kStop;  // epochs are monotone
        return epoch >= epoch_lo ? Pick::kKeep : Pick::kSkip;
      },
      out);
}

}  // namespace anc::store
