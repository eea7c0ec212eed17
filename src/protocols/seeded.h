// Seeded pseudo-random ALOHA with cross-frame ANC recovery — the
// Ricciato & Castiglione trick ("Pseudo-random Aloha for Enhanced
// Collision-recovery in RFID", IEEE Wireless Comm. Letters 2013) hybridized
// with the source paper's collision-record cascade.
//
// In IRSA the reader only learns a collision slot's constituents when
// replica pointers are recovered by cancellation. Here every tag derives
// its whole replica pattern (degree + slot choices) from a *seed* carried
// in a short, robustly-coded header of each burst: the reader decodes the
// headers even in collisions, regenerates each seed's pattern, and
// therefore knows **every record's constituents at open time** — the ANC
// cascade starts warm. Two consequences this implementation models:
//
//   1. Within a frame, SIC needs no pointer recovery (same decode set as
//      IRSA, reached in fewer real-world iterations — not modelled).
//   2. Unresolved collision slots stay *open across frames* as collision
//      records, exactly like the source paper's FCAT store: when a
//      constituent is finally read in a later frame, it is cancelled out
//      of every stored record it touches, and records reaching one
//      unknown constituent yield that tag by subtraction — IDs recovered
//      without any retransmission. This is what puts the hybrid at or
//      above plain IRSA at every load (asserted by tests and
//      bench_coded).
//
// Tag-side draws and reader-side regeneration share one pure function,
// DeriveSeededPattern() — a SplitMix64 counter chain over
// (tag digest, run salt, frame index) — so determinism is structural:
// the pattern depends only on those inputs, never on RNG consumption
// order or thread scheduling (test: SeededPattern.RegenerationMatches).
//
// Like CRDSA/IRSA, cancellation is idealized (no mixture-order cap λ,
// no subtraction noise); see protocols/irsa.h for the rationale.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "protocols/baseline_base.h"
#include "protocols/degree_dist.h"
#include "protocols/peeling.h"

namespace anc::protocols {

// Replica pattern of one tag in one frame, derived from the seed both
// sides share. `slots` holds `degree` distinct slot indices.
struct SeededPattern {
  static constexpr int kMaxDegree = 16;
  int degree = 0;
  std::uint32_t slots[kMaxDegree] = {};
};

// The shared tag/reader pattern derivation: pure in its arguments.
SeededPattern DeriveSeededPattern(std::uint64_t tag_digest,
                                  std::uint64_t run_salt,
                                  std::uint64_t frame_index,
                                  std::uint64_t frame_size,
                                  const DegreeDistribution& degrees);

struct SeededConfig {
  DegreeDistribution degrees = DegreeDistribution::IrsaOptimal();
  // Offered load G (tags/slot): slots = backlog / target_load.
  double target_load = 0.9;
  std::uint64_t min_frame_size = 8;
  std::uint64_t max_frame_size = 1u << 15;
  // Stopping-set escape hatch: a frame's decode pops its ready queue at
  // most max_ic_iterations × (frame_size + stored records) times.
  int max_ic_iterations = 50;
  // Cap on collision records kept open across frames (0 = unbounded).
  // Overflow drops the oldest record (counted in records_evicted).
  std::size_t store_capacity = 0;
};

class SeededAloha final : public BaselineBase {
 public:
  SeededAloha(std::span<const TagId> population, anc::Pcg32 rng,
              phy::TimingModel timing, SeededConfig config = {});

  void Step() override;
  bool Finished() const override { return finished_; }

  // Stored cross-frame collision records; 0 after every completed run
  // (cleared at termination, counted into unresolved_records).
  std::size_t OpenPhyRecords() const override { return records_.size(); }
  void Shutdown() override { records_.clear(); }

  // Churn hooks (src/service). Same frame-boundary semantics as Irsa;
  // additionally, a departed tag's contributions to *stored* cross-frame
  // records survive, so a record can still resolve to a tag that already
  // left the field — the ghost-read path the service layer measures.
  bool SupportsChurn() const override { return true; }
  bool ArriveTag(const TagId& id) override;
  bool DepartTag(const TagId& id) override;
  bool BeginInventoryRound(bool refresh) override;
  std::span<const TagId> LearnedThisStep() const override {
    return learned_this_step_;
  }

  // Checkpoint hooks (sim::Protocol): the Irsa frame state plus the
  // cross-frame record store. run_salt_ is rederived at construction
  // (drawn before any other use of the stream) and then confirmed by the
  // restored RNG state.
  bool SupportsCheckpoint() const override { return true; }
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view bytes) override;

 private:
  struct StoredRecord {
    std::uint64_t id = 0;  // monotonically increasing, for trace events
    std::vector<std::uint32_t> constituents;  // still-unread tags only
  };

  void StartFrame();
  void DecodeFrame();
  void RebuildUnread();
  std::uint32_t IndexOf(const TagId& id) const;

  SeededConfig config_;
  std::uint64_t run_salt_ = 0;
  std::vector<std::uint32_t> unread_;
  std::vector<bool> read_;
  std::vector<bool> present_;
  std::unordered_map<std::uint64_t, std::uint32_t> digest_to_index_;

  std::uint64_t frame_size_ = 0;
  std::uint64_t slot_cursor_ = 0;
  std::uint64_t frame_transmissions_ = 0;
  std::vector<std::vector<std::uint32_t>> slot_tags_;
  bool needs_frame_ = true;
  bool finished_ = false;

  // Open cross-frame records, oldest first (ascending id). Decoding
  // removes resolved records from anywhere in the list; eviction drops
  // from the front.
  std::vector<StoredRecord> records_;
  std::uint64_t next_record_id_ = 0;

  PeelingDecoder peeler_;  // DecodeFrame scratch, reused across frames
  std::vector<TagId> learned_this_step_;
};

}  // namespace anc::protocols
