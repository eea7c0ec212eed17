#include "trace/timeseries.h"

#include <cmath>
#include <cstdio>

namespace anc::trace {

void FrameSeriesSink::OnEvent(const TraceEvent& e) {
  if (e.reader != reader_) return;
  switch (e.kind) {
    case EventKind::kAck:
      // New over-the-air reads only: re-acks are duplicates and
      // injections are a neighbour's read.
      if (e.ack == AckKind::kSingletonId || e.ack == AckKind::kSlotIndex ||
          e.ack == AckKind::kFullId) {
        ++running_.tags_read;
      }
      break;
    case EventKind::kRecordOpen:
      open_since_.emplace(e.record, e.slot);
      break;
    case EventKind::kRecordResolve:
      open_since_.erase(e.record);
      break;
    case EventKind::kFault:
      // Fault-path closes: evictions/abandonments end one record
      // without a resolve event; a crash drops the whole store.
      if (e.fault == FaultKind::kEviction ||
          e.fault == FaultKind::kAbandonRetry ||
          e.fault == FaultKind::kAbandonTtl) {
        open_since_.erase(e.record);
      } else if (e.fault == FaultKind::kCrash) {
        open_since_.clear();
      }
      break;
    case EventKind::kArrive:
      running_.population = e.n_c;
      ++arrived_;
      break;
    case EventKind::kDepart:
      running_.population = e.n_c;
      if (e.estimate_q8) ++missed_;  // departed without ever being detected
      break;
    case EventKind::kDetect:
      detect_p99_.Add(static_cast<double>(e.n_c));
      break;
    case EventKind::kEpoch: {
      running_.detected = e.record;
      running_.staleness_p99 =
          static_cast<double>(e.estimate_q8) / kEstimateScale;
      const std::uint64_t reported = e.record + e.responders;
      ghost_rate_.Add(reported > 0 ? static_cast<double>(e.responders) /
                                         static_cast<double>(reported)
                                   : 0.0);
      break;
    }
    case EventKind::kFrame: {
      // The end of an inventory round releases every open record without
      // an event. Those records are older than any opened since, so the
      // lowest handles beyond the open count the frame reports are gone.
      while (open_since_.size() > e.record) {
        open_since_.erase(open_since_.begin());
      }
      FramePoint p = running_;
      p.frame = e.frame;
      p.end_slot = e.slot;
      p.elapsed_seconds = static_cast<double>(e.elapsed_us) / 1e6;
      p.throughput_so_far =
          p.elapsed_seconds > 0.0
              ? static_cast<double>(p.tags_read) / p.elapsed_seconds
              : 0.0;
      p.n_c = e.n_c;
      p.open_records = e.record;
      // Birth slots need not follow handle order: scan.
      std::uint64_t oldest = e.slot;
      for (const auto& [handle, born] : open_since_) {
        if (born < oldest) oldest = born;
      }
      p.oldest_record_age = open_since_.empty() ? 0 : e.slot - oldest;
      p.estimate = static_cast<double>(e.estimate_q8) / kEstimateScale;
      p.estimate_abs_error =
          std::abs(p.estimate - static_cast<double>(n_tags_));
      p.detect_p99 = detect_p99_.count() > 0 ? detect_p99_.value() : 0.0;
      p.missed_rate = arrived_ > 0 ? static_cast<double>(missed_) /
                                         static_cast<double>(arrived_)
                                   : 0.0;
      p.ghost_rate = ghost_rate_.count() > 0 ? ghost_rate_.mean() : 0.0;
      series_.push_back(p);
      break;
    }
    default:
      break;
  }
}

std::vector<FramePoint> ExtractFrameSeries(const RunTrace& run,
                                           std::uint32_t reader) {
  FrameSeriesSink sink(reader);
  PushRun(run, sink);
  return sink.series();
}

std::string FrameSeriesCsv(const std::vector<FramePoint>& series) {
  std::string csv =
      "frame,end_slot,tags_read,elapsed_seconds,throughput_so_far,"
      "n_c,open_records,oldest_record_age,estimate,estimate_abs_error,"
      "population,detected,staleness_p99,detect_p99,missed_rate,"
      "ghost_rate\n";
  char line[320];
  for (const FramePoint& p : series) {
    std::snprintf(line, sizeof line,
                  "%llu,%llu,%llu,%.6f,%.3f,%llu,%llu,%llu,%.3f,%.3f,"
                  "%llu,%llu,%.3f,%.3f,%.6f,%.6f\n",
                  static_cast<unsigned long long>(p.frame),
                  static_cast<unsigned long long>(p.end_slot),
                  static_cast<unsigned long long>(p.tags_read),
                  p.elapsed_seconds, p.throughput_so_far,
                  static_cast<unsigned long long>(p.n_c),
                  static_cast<unsigned long long>(p.open_records),
                  static_cast<unsigned long long>(p.oldest_record_age),
                  p.estimate, p.estimate_abs_error,
                  static_cast<unsigned long long>(p.population),
                  static_cast<unsigned long long>(p.detected),
                  p.staleness_p99, p.detect_p99, p.missed_rate,
                  p.ghost_rate);
    csv += line;
  }
  return csv;
}

std::string WriteFrameSeriesCsv(const std::vector<FramePoint>& series,
                                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return "cannot open " + path + " for write";
  const std::string csv = FrameSeriesCsv(series);
  const bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  std::fclose(f);
  return ok ? "" : "short write to " + path;
}

}  // namespace anc::trace
