// The embedded tag-count estimator of Section V-C.
//
// FCAT avoids a separate estimation pre-step: at the end of each frame the
// reader counts the collision slots nc and inverts Eq. 10 (Eq. 12) to
// estimate the number of tags that participated in the frame. Adding the
// tags already acknowledged gives an estimate N* of the total population;
// averaging N* across frames shrinks the variance as the protocol runs
// (the paper's appendix derives per-frame variance ~0.027-0.035 relative).
//
// Bootstrap: before the first informative frame the reader has no idea of
// N. A frame whose every slot collided (nc == f) pins the estimate only to
// a lower bound; such saturated frames steer a geometric ramp-up and are
// excluded from the average.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <string>

#include "common/serialize.h"
#include "common/stats.h"

namespace anc::core {

class EmbeddedEstimator {
 public:
  // `window` bounds the running average to the most recent informative
  // frames: 0 averages every frame (the paper's description, minimum
  // variance for a static population), a finite window trades a little
  // variance for responsiveness near the end of the reading process when
  // the per-frame estimates of the *remaining* population carry the
  // signal. The ablation bench bench_estimator compares the two.
  EmbeddedEstimator(std::uint64_t frame_size, double omega,
                    double initial_total, std::size_t window = 0);

  // Feeds the collision count of a completed frame. `p_effective` is the
  // (quantized) report probability the frame actually ran at;
  // `acked_at_frame_start` the number of tags already identified when the
  // frame began.
  void Update(std::uint64_t nc, double p_effective,
              std::uint64_t acked_at_frame_start);

  // Current estimate of the total tag population N.
  double EstimatedTotal() const;

  // Estimate of the tags still unidentified, given the current ack count.
  double EstimatedBacklog(std::uint64_t acked_now) const;

  // Frames that contributed to the running average (unsaturated frames).
  std::size_t InformativeFrames() const { return informative_frames_; }

  // Raises the estimate floor (used after a p=1 probe slot collides: at
  // least `minimum` tags are known to remain).
  void RaiseBacklogFloor(std::uint64_t acked_now, double minimum);

  // Checkpoint hooks (common/serialize.h wire format): the running
  // average (all-time or windowed) plus the probe floor; frame size,
  // omega, bootstrap and window are construction parameters.
  void SaveState(std::string* out) const {
    ser::PutF64(*out, floor_total_);
    ser::PutVarint(*out, informative_frames_);
    anc::PutRunningStats(*out, samples_);
    ser::PutVarint(*out, recent_.size());
    for (double v : recent_) ser::PutF64(*out, v);
    ser::PutF64(*out, recent_sum_);
  }
  bool RestoreState(ser::Reader& r) {
    floor_total_ = r.F64();
    informative_frames_ = static_cast<std::size_t>(r.Varint());
    if (!anc::ReadRunningStats(r, samples_)) return false;
    // Update keeps at most window_ frames (none when window_ == 0).
    const std::uint64_t n = r.Varint();
    if (!r.ok || n > window_) return false;
    recent_.clear();
    for (std::uint64_t i = 0; i < n && r.ok; ++i) recent_.push_back(r.F64());
    recent_sum_ = r.F64();
    return r.ok && std::isfinite(recent_sum_);
  }

 private:
  std::uint64_t frame_size_;
  double omega_;
  double bootstrap_total_;
  double floor_total_ = 0.0;
  std::size_t window_;
  std::size_t informative_frames_ = 0;
  RunningStats samples_;              // all-time average (window_ == 0)
  std::deque<double> recent_;         // windowed average (window_ > 0)
  double recent_sum_ = 0.0;
};

}  // namespace anc::core
