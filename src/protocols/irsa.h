// Irregular Repetition Slotted ALOHA (Liva, IEEE Trans. Comm. 2011) —
// the modern generalization of CRDSA the coded-slotted-ALOHA literature
// is built on.
//
// Each unread tag samples a replica degree d from a distribution Λ(x)
// (see protocols/degree_dist.h for the math and the density-evolution
// threshold G*) and transmits d copies of its report in d distinct slots
// of the frame, each copy carrying pointers to its twins. The reader
// buffers the whole frame and runs iterative successive interference
// cancellation: decode singletons, cancel their twin copies from the
// stored slot signals, repeat until a stopping set survives. With the
// optimized Λ(x) = 0.5x^2 + 0.28x^3 + 0.22x^8 the asymptotic threshold is
// G* ≈ 0.938 tags/slot — within 7% of the G = 1 packing bound and far
// beyond both CRDSA-2 (finite-frame peak ~0.55) and the 1/e ≈ 0.368
// ALOHA wall the source paper's Section III frames FCAT against.
//
// CRDSA (Casini, De Gaudenzi & Herrero, IEEE Trans. Wireless Comm. 2007)
// — the satellite-access scheme the paper's Section III-C points to as
// the other published use of signal cancellation for random access — is
// the point-mass case Λ(x) = x^d: every tag sends exactly d copies
// (d = 2 is classic CRDSA, peak ~0.55 IDs/slot at load G = 0.65). Such a
// configuration names itself "CRDSA-<d>".
//
// Relation to the engine machinery: IRSA's SIC sweep is the same
// last-constituent recovery the CollisionAwareEngine's ANC cascade
// performs (a slot with one un-cancelled constituent yields that
// constituent), but applied frame-at-a-time over an idealized
// cancellation channel with no mixture-order cap — the λ ≤ 4 bound that
// applies to FCAT's analog subtraction is assumed away.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "protocols/baseline_base.h"
#include "protocols/degree_dist.h"

namespace anc::protocols {

struct IrsaConfig {
  // Replica-degree distribution Λ(x).
  DegreeDistribution degrees = DegreeDistribution::IrsaOptimal();
  // Frame sizing: slots = backlog / target_load (offered load G in
  // tags/slot). The default sits at the optimized distribution's
  // density-evolution threshold.
  double target_load = 0.9;
  std::uint64_t min_frame_size = 8;
  std::uint64_t max_frame_size = 1u << 15;
  // Cap on SIC sweeps per frame (stopping-set escape hatch).
  int max_ic_iterations = 50;
};

class Irsa final : public BaselineBase {
 public:
  Irsa(std::span<const TagId> population, anc::Pcg32 rng,
       phy::TimingModel timing, IrsaConfig config = {});

  void Step() override;
  bool Finished() const override { return finished_; }

  // Churn hooks (src/service). A tag arriving mid-frame missed the frame
  // advertisement and joins at the next frame; a tag departing mid-frame
  // keeps the replicas it already transmitted (the reader buffered those
  // signals) but its not-yet-transmitted replicas vanish from the frame.
  bool SupportsChurn() const override { return true; }
  bool ArriveTag(const TagId& id) override;
  bool DepartTag(const TagId& id) override;
  bool BeginInventoryRound(bool refresh) override;
  std::span<const TagId> LearnedThisStep() const override {
    return learned_this_step_;
  }

  // Checkpoint hooks (sim::Protocol). Serialized between Step()s: the
  // base state plus the whole current frame (occupancy per slot included,
  // so a mid-frame checkpoint resumes with the buffered signals intact).
  bool SupportsCheckpoint() const override { return true; }
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view bytes) override;

 private:
  void StartFrame();
  void DecodeFrame();  // SIC over the buffered frame, at the frame boundary
  // Recomputes unread_ = {present && !read} in index order — identical to
  // the erase-based maintenance for a closed population, so RNG draw
  // order (and golden traces) are unchanged.
  void RebuildUnread();
  std::uint32_t IndexOf(const TagId& id) const;

  IrsaConfig config_;
  std::string name_storage_;  // "CRDSA-<d>" for a point-mass Λ
  std::vector<std::uint32_t> unread_;
  std::vector<bool> read_;
  std::vector<bool> present_;
  std::unordered_map<std::uint64_t, std::uint32_t> digest_to_index_;

  // Current frame. The first Step() of each frame builds it (deferred
  // from the previous boundary so churn applied between frames lands
  // before the tags commit their replica patterns).
  std::uint64_t frame_size_ = 0;
  std::uint64_t slot_cursor_ = 0;
  std::uint64_t frame_transmissions_ = 0;
  std::vector<std::vector<std::uint32_t>> slot_tags_;  // on-air occupancy
  bool needs_frame_ = true;
  bool finished_ = false;

  // Scratch for DecodeFrame (reused across frames).
  std::vector<std::uint8_t> decoded_;
  std::vector<std::uint64_t> ready_;
  std::vector<TagId> learned_this_step_;
};

}  // namespace anc::protocols
