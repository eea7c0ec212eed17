// Time-series extraction over a traced run: turns the flat event stream
// into the per-frame dynamics the end-of-run aggregates hide — throughput
// so far, record-store occupancy and age, and the embedded estimator's
// convergence toward the true population (the Eq. 12/16/25 quantities).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "trace/sink.h"

namespace anc::trace {

// One row per kFrame event of the selected reader.
struct FramePoint {
  std::uint64_t frame = 0;
  std::uint64_t end_slot = 0;       // protocol slot index at the boundary
  std::uint64_t tags_read = 0;      // cumulative over-the-air reads
  double elapsed_seconds = 0.0;     // cumulative air time
  double throughput_so_far = 0.0;   // tags_read / elapsed_seconds
  std::uint64_t n_c = 0;            // collision slots in this frame
  std::uint64_t open_records = 0;   // record-store occupancy
  // Slots since the oldest still-open record was stored (0 when empty):
  // a growing age means the cascade is starving.
  std::uint64_t oldest_record_age = 0;
  double estimate = 0.0;            // estimator snapshot N-hat
  double estimate_abs_error = 0.0;  // |N-hat - n_tags| (header truth)
  // Churn columns (service-mode soaks; all 0 for one-shot runs).
  std::uint64_t population = 0;     // live tags after the latest churn event
  std::uint64_t detected = 0;       // detected-and-present, latest kEpoch
  double staleness_p99 = 0.0;       // staleness p99 in slots, latest kEpoch
  // SLO columns, running versions of service::SloReport so dashboards can
  // watch a soak trace converge (all 0 for one-shot runs):
  double detect_p99 = 0.0;   // p99 detection latency (slots) so far
  double missed_rate = 0.0;  // departed-never-detected / arrived so far
  double ghost_rate = 0.0;   // mean per-epoch ghosts / reported so far
};

// The streaming fold behind the series: push one run (BeginRun, events,
// EndRun), then read series(). Besides one row per frame it holds only
// the open records.
class FrameSeriesSink final : public TraceSink {
 public:
  // Folds the events of one reader (0 = a single-reader run; deployment
  // traces carry readers 1..R).
  explicit FrameSeriesSink(std::uint32_t reader = 0) : reader_(reader) {}

  void BeginRun(const RunHeader& header) override { n_tags_ = header.n_tags; }
  void OnEvent(const TraceEvent& e) override;
  void EndRun() override {}

  const std::vector<FramePoint>& series() const { return series_; }
  // Records the fold holds open (their birth slots give the age column).
  std::size_t open_records() const { return open_since_.size(); }

 private:
  std::uint32_t reader_;
  std::uint64_t n_tags_ = 0;
  std::vector<FramePoint> series_;
  // Columns carried between frames: reads so far and the latest churn
  // state. The SLO columns keep their running state (mirroring
  // service::SloReport's definitions) apart.
  FramePoint running_;
  P2Quantile detect_p99_{0.99};
  std::uint64_t arrived_ = 0, missed_ = 0;
  RunningStats ghost_rate_;
  std::map<std::uint64_t, std::uint64_t> open_since_;  // handle -> birth slot
};

// The series of one in-memory run (FrameSeriesSink over its events).
std::vector<FramePoint> ExtractFrameSeries(const RunTrace& run,
                                           std::uint32_t reader = 0);

// CSV rendering, one header line + one row per frame.
std::string FrameSeriesCsv(const std::vector<FramePoint>& series);

// Writes the CSV to `path`. Returns "" on success, else an error message.
std::string WriteFrameSeriesCsv(const std::vector<FramePoint>& series,
                                const std::string& path);

}  // namespace anc::trace
