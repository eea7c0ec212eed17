// Multi-packet-reception (MPR) framed ALOHA with optimal frame sizing
// (Pudasaini, Shin & Kwak, "Optimum Tag Reading Efficiency of
// Multi-Packet Reception Capable RFID Readers", 2013), plus the
// Bonuccelli-style perfect-identification upper bound ("Perfect tag
// identification protocol in RFID networks", 2008).
//
// An M-MPR reader decodes every slot in which at most M tags answered
// (multi-user detection at the physical layer); only slots with more
// than M responders are destructive collisions. With n backlogged tags
// on an L-slot frame, the per-slot success count in the Poisson limit
// (G = n/L tags per slot) is
//
//   S_M(G) = Σ_{k=1..M} k · e^{−G} G^k / k!,
//
// and the reading efficiency S_M(G)/1 is maximized by the unique root
// G*_M of dS_M/dG = 0, giving Pudasaini et al.'s optimal frame size rule
//
//   L* = n / G*_M,   G*_1 = 1 (the classic L = n rule),
//   G*_2 = (1+√5)/2 ≈ 1.618 (the golden ratio: 1 + G − G² = 0),
//   G*_4 ≈ 2.945, G*_8 ≈ 5.804 — growing ≈ linearly in M, with peak
//   efficiency S_M(G*_M) ≈ 0.368 / 0.840 / 1.942 / 4.472 tags/slot.
//
// OptimalMprLoad() computes G*_M numerically (ternary search on the
// unimodal S_M), so the reader re-sizes every frame at the measured
// optimum rather than a hardcoded table.
//
// PerfectIdentification is the matching upper bound: a genie reader that
// already knows the population schedules each tag exactly once, reading
// min(M, remaining) tags per slot — n/M slots total, the floor no
// contention-based protocol can beat. Bonuccelli et al. approach it with
// deterministic hash-slot assignment after one identification round; we
// model the bound itself.
#pragma once

#include <string>

#include "protocols/baseline_base.h"
#include "protocols/frame_slots.h"

namespace anc::protocols {

// The optimal per-slot offered load G*_M for an M-MPR reader: the
// argmax of S_M(G) above. M = 1 returns 1.0 exactly (framed ALOHA).
double OptimalMprLoad(int capacity);

struct MprConfig {
  // Packets the reader front-end can decode per slot (M).
  int capacity = 4;
  // Offered load G; 0 = the optimal G*_M recomputed per construction.
  double target_load = 0.0;
  std::uint64_t min_frame_size = 1;
  std::uint64_t max_frame_size = 1u << 15;
};

class Mpr final : public BaselineBase {
 public:
  Mpr(std::span<const TagId> population, anc::Pcg32 rng,
      phy::TimingModel timing, MprConfig config = {});

  void Step() override;
  bool Finished() const override { return finished_; }

 private:
  void StartFrame();

  MprConfig config_;
  double load_;             // resolved target load (G*_M when config is 0)
  std::string name_storage_;  // "MPR-<capacity>"
  std::vector<std::uint32_t> unread_;
  std::vector<bool> read_;

  std::uint64_t frame_size_ = 0;
  std::uint64_t slot_cursor_ = 0;
  std::uint64_t frame_transmissions_ = 0;
  FrameSlots slot_tags_;
  bool finished_ = false;
};

struct PerfectConfig {
  // Tags identified per slot (an M-MPR genie; 1 = the classic bound).
  int capacity = 1;
};

class PerfectIdentification final : public BaselineBase {
 public:
  PerfectIdentification(std::span<const TagId> population, anc::Pcg32 rng,
                        phy::TimingModel timing, PerfectConfig config = {});

  void Step() override;
  bool Finished() const override { return cursor_ >= population_.size(); }

 private:
  PerfectConfig config_;
  std::size_t cursor_ = 0;  // tags identified so far
};

}  // namespace anc::protocols
