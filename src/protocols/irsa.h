// The coded-ALOHA reader: Irregular Repetition Slotted ALOHA (Liva, IEEE
// Trans. Comm. 2011), CRDSA as its point-mass case, and the seeded
// pseudo-random hybrid with a cross-frame collision-record store.
//
// IRSA. Each unread tag samples a replica degree d from a distribution
// Λ(x) (see protocols/degree_dist.h for the math and the density-evolution
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
// SEEDED (IrsaConfig::seeded_store_capacity set) is the Ricciato &
// Castiglione trick ("Pseudo-random Aloha for Enhanced Collision-recovery
// in RFID", IEEE Wireless Comm. Letters 2013) hybridized with the source
// paper's collision-record cascade. Every tag derives its whole replica
// pattern (degree + slot choices) from a *seed* carried in a short,
// robustly-coded header of each burst: the reader decodes the headers
// even in collisions, regenerates each seed's pattern, and therefore
// knows every collision slot's constituents at open time. So unresolved
// collision slots stay *open across frames* as collision records, like
// the source paper's FCAT store: when a constituent is finally read in a
// later frame it is cancelled out of every stored record it touches, and
// a record reaching one unknown constituent yields that tag by
// subtraction — an ID recovered without any retransmission. This is what
// puts the hybrid at or above plain IRSA at every load (asserted by tests
// and bench_coded). Tag-side draws and reader-side regeneration share one
// pure function, DeriveSeededPattern() — a SplitMix64 counter chain over
// (tag digest, run salt, frame index) — so the pattern depends only on
// those inputs, never on RNG consumption order or thread scheduling.
//
// The seeded mode changes three things only: where a replica pattern
// comes from (StartFrame), the stored records that join each frame's
// decode and the surviving collision slots that become new records
// (DecodeFrame), and the record store appended to the checkpoint.
//
// Relation to the engine machinery: the SIC (protocols/peeling.h) is the
// same last-constituent recovery the CollisionAwareEngine's ANC cascade
// performs (a slot with one un-cancelled constituent yields that
// constituent), but applied frame-at-a-time over an idealized
// cancellation channel with no mixture-order cap — the λ ≤ 4 bound that
// applies to FCAT's analog subtraction is assumed away.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/digest_index.h"
#include "protocols/baseline_base.h"
#include "protocols/degree_dist.h"
#include "protocols/frame_slots.h"
#include "protocols/peeling.h"

namespace anc::protocols {

// Replica pattern of one tag in one frame. `slots` holds `degree`
// distinct slot indices.
struct SeededPattern {
  static constexpr int kMaxDegree = 16;
  int degree = 0;
  std::uint32_t slots[kMaxDegree] = {};
};

// The seeded tag/reader pattern derivation: pure in its arguments.
SeededPattern DeriveSeededPattern(std::uint64_t tag_digest,
                                  std::uint64_t run_salt,
                                  std::uint64_t frame_index,
                                  std::uint64_t frame_size,
                                  const DegreeDistribution& degrees);

struct IrsaConfig {
  // Replica-degree distribution Λ(x).
  DegreeDistribution degrees = DegreeDistribution::IrsaOptimal();
  // Frame sizing: slots = backlog / target_load (offered load G in
  // tags/slot), clamped to [Irsa::kMinFrameSize, Irsa::kMaxFrameSize].
  // The default sits at the optimized distribution's density-evolution
  // threshold.
  double target_load = 0.9;
  // Set: run SEEDED, keeping at most this many collision records open
  // across frames (0 = unbounded). Overflow drops the oldest record
  // (counted in records_evicted).
  std::optional<std::size_t> seeded_store_capacity;
};

class Irsa final : public BaselineBase {
 public:
  static constexpr std::uint64_t kMinFrameSize = 8;
  static constexpr std::uint64_t kMaxFrameSize = 1u << 15;

  Irsa(std::span<const TagId> population, anc::Pcg32 rng,
       phy::TimingModel timing, IrsaConfig config = {});

  void Step() override;
  bool Finished() const override { return finished_; }

  // Stored cross-frame collision records (always 0 outside seeded mode);
  // 0 after every completed run (cleared at termination, counted into
  // unresolved_records).
  std::size_t OpenPhyRecords() const override { return records_.size(); }
  void Shutdown() override { records_.clear(); }

  // Churn hooks (src/service). A tag arriving mid-frame missed the frame
  // advertisement and joins at the next frame; a tag departing mid-frame
  // keeps the replicas it already transmitted (the reader buffered those
  // signals) but its not-yet-transmitted replicas vanish from the frame.
  // Its contributions to stored cross-frame records survive too, so a
  // record can still resolve to a tag that already left the field — the
  // ghost-read path the service layer measures.
  bool SupportsChurn() const override { return true; }
  bool ArriveTag(const TagId& id) override;
  bool DepartTag(const TagId& id) override;
  bool BeginInventoryRound(bool refresh) override;
  std::span<const TagId> LearnedThisStep() const override {
    return learned_this_step_;
  }

  // Checkpoint hooks (sim::Protocol). Serialized between Step()s: the
  // base state plus the whole current frame (occupancy per slot included,
  // so a mid-frame checkpoint resumes with the buffered signals intact),
  // then in seeded mode the record store. run_salt_ is rederived at
  // construction and then confirmed by the restored RNG state.
  bool SupportsCheckpoint() const override { return true; }
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view bytes) override;

 private:
  struct StoredRecord {
    std::uint64_t id = 0;  // monotonically increasing, for trace events
    std::vector<std::uint32_t> constituents;  // still-unread tags only
  };

  bool seeded() const { return config_.seeded_store_capacity.has_value(); }
  void StartFrame();
  void DecodeFrame();  // SIC over the buffered frame, at the frame boundary
  // Recomputes unread_ = {present && !read} in index order — identical to
  // the erase-based maintenance for a closed population, so RNG draw
  // order (and golden traces) are unchanged.
  void RebuildUnread();

  IrsaConfig config_;
  std::string name_storage_;  // "CRDSA-<d>" for a point-mass Λ
  std::uint64_t run_salt_ = 0;  // seeded mode: announced with each frame
  std::vector<std::uint32_t> unread_;
  std::vector<bool> read_;
  std::vector<bool> present_;
  DigestIndex digest_to_index_;

  // Current frame. The first Step() of each frame builds it (deferred
  // from the previous boundary so churn applied between frames lands
  // before the tags commit their replica patterns).
  std::uint64_t frame_size_ = 0;
  std::uint64_t slot_cursor_ = 0;
  std::uint64_t frame_transmissions_ = 0;
  FrameSlots slot_tags_;  // on-air occupancy
  bool needs_frame_ = true;
  bool finished_ = false;

  // Seeded mode: open cross-frame records, oldest first (ascending id).
  // Decoding removes resolved records from anywhere in the list;
  // eviction drops from the front.
  std::vector<StoredRecord> records_;
  std::uint64_t next_record_id_ = 0;

  PeelingDecoder peeler_;  // DecodeFrame scratch, reused across frames
  std::vector<TagId> learned_this_step_;
};

}  // namespace anc::protocols
