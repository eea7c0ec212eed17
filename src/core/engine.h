// The collision-aware tag identification engine — the paper's core
// contribution, shared by SCAT (Section IV) and FCAT (Section V).
//
// Paper anchors implemented here:
//   * Report probability p_i = omega / N_i with the optimal load target
//     omega = (lambda!)^{1/lambda} (Section IV-D's maximization of
//     P{1 <= X_i <= lambda}): 1.414 / 1.817 / 2.213 for lambda = 2/3/4.
//   * The embedded tag-count estimator of Section V-C: each frame's
//     collision-slot count n_c is inverted through Eq. 12 to refresh the
//     backlog estimate N_i, with no dedicated estimation slots.
//   * Slot accounting per Section VI's timing model, including the
//     frame-advertisement and acknowledgement overheads of Section V-A.
//
// Per slot: the reader advertises (or has advertised, per frame) a report
// probability p_i = omega / N_i; each unidentified tag transmits its ID
// with that probability. Singletons are identified immediately; collision
// slots are stored as records. Every newly learned ID is fed into the
// records it participated in, and any record reduced to one unknown
// constituent (with mixture order <= lambda) is resolved by ANC — possibly
// cascading into further resolutions (Fig. 1's walkthrough). Tags stop
// once acknowledged, directly or via the resolved record's 23-bit slot
// index (Section V-A).
//
// The engine is generic over the phy, so the identical protocol logic runs
// against the paper's abstract channel (IdealPhy) and against full MSK
// waveform simulation (SignalPhy).
#pragma once

#include <array>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/digest_index.h"
#include "common/fixed_point.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/config.h"
#include "core/estimator.h"
#include "core/record_tracker.h"
#include "fault/injector.h"
#include "phy/phy.h"
#include "sim/protocol.h"

namespace anc::core {

class CollisionAwareEngine : public sim::Protocol {
 public:
  // `phy` must outlive the engine.
  CollisionAwareEngine(std::string name, std::span<const TagId> population,
                       phy::PhyInterface& phy, CollisionAwareConfig config,
                       anc::Pcg32 rng);

  void Step() override;
  bool Finished() const override { return finished_; }
  std::string_view name() const override { return name_; }
  const sim::RunMetrics& metrics() const override { return metrics_; }

  // Deployment hooks (sim::Protocol): the engine records every ID learned
  // during a Step() for the deployment layer to broadcast, and accepts
  // neighbour-resolved IDs back. An injected ID silences its tag (the
  // reader acknowledges from the shared knowledge, without reading it
  // over the air) and cascades through the record tracker exactly like a
  // locally learned ID; IDs recovered that way count as
  // ids_from_collisions, the injected one as ids_injected.
  std::span<const TagId> LearnedThisStep() const override {
    return learned_this_step_;
  }
  std::span<const TagId> InjectKnownId(const TagId& id) override;

  // Slot-level tracing (src/trace): slots, record open/resolve ops, acks,
  // per-frame estimator snapshots. Emission sites are a null check on the
  // context, so an unattached engine pays nothing.
  void AttachTrace(const trace::TraceContext& context) override {
    trace_ = context;
  }

  // Fault hooks (sim::Protocol): records still held in the phy store, and
  // the permanent power-off used when a deployment reader dies.
  std::size_t OpenPhyRecords() const override { return phy_.OpenRecords(); }
  void Shutdown() override;

  // Churn hooks (sim::Protocol, src/service): presence toggling over the
  // construction-time universe plus re-arming for continuous inventory
  // rounds. Absent tags never transmit; a departed tag's contribution to
  // already-open collision records survives (resolving one later is the
  // service layer's ghost read). BeginInventoryRound reboots the frame
  // machinery and estimator exactly like a crash recovery, minus the
  // outage cost and fault accounting.
  bool SupportsChurn() const override { return true; }
  bool ArriveTag(const TagId& id) override;
  bool DepartTag(const TagId& id) override;
  bool BeginInventoryRound(bool refresh) override;

  // Checkpoint hooks. Deliberately NOT the sim::Protocol blob interface:
  // the engine serializes only its own mutable state — the phy it runs
  // over is an external reference, and the owning EngineProtocol<Phy>
  // (core/engine_protocol.h) pairs the two blobs and implements the
  // Protocol-level hooks. Must be called between Step()s (per-step
  // scratch is empty then). The record tracker's share of the state comes
  // as views of its encoding cache (ser::Pieces). RestoreEngineState
  // rejects an unread-tag list that is not a set of tags with
  // pos_in_active_ as its inverse, and a cascade entry outside the
  // universe.
  void SaveEngineState(anc::ser::Pieces& out) const;
  void SaveEngineState(std::string* out) const;
  bool RestoreEngineState(anc::ser::Reader& r);

  // Introspection for tests and the estimator benches.
  double EstimatedTotal() const;
  std::uint64_t ActiveTags() const { return active_.size(); }
  const EmbeddedEstimator& estimator() const { return estimator_; }
  double omega() const { return omega_; }
  // Fault-layer counters; null when no fault channel is configured.
  const fault::FaultCounters* fault_counters() const {
    return fault_ ? &fault_->counters() : nullptr;
  }

 private:
  void SelectTransmitters(const QuantizedProbability& prob);
  void LearnId(const TagId& id, bool from_collision);
  void EmitResolve(const RecordTracker::Resolution& resolution, bool cascade);
  void Deactivate(std::uint32_t tag);
  void Activate(std::uint32_t tag);
  // Cold restart of the frame/estimator machinery shared by PowerCycle()
  // and BeginInventoryRound().
  void ResetFrameMachinery();
  void RegisterRecord(phy::RecordHandle handle);
  void DrainCascade();
  // Terminal sweep: marks the run finished, captures unresolved_records,
  // then releases every still-open record back to the phy (the leak fix —
  // a completed run must leave OpenRecords() == 0).
  void Finish();
  // Crash/recovery: drops the volatile record store and estimator state,
  // then restarts the inventory from a fresh bootstrap (FCAT re-estimates
  // from frame_size, exactly like a cold start over the residual backlog).
  void PowerCycle();
  void EmitFault(trace::FaultKind kind, phy::RecordHandle record,
                 std::uint64_t aux);
  // Drains eviction/TTL/retry fallout produced by the tracker this slot.
  void HandleEviction(phy::RecordHandle victim);
  void DrainRetryAbandoned();
  // Tags the reader no longer expects on the air: read over the air plus
  // learned from a neighbour's broadcast. This — not tags_read alone — is
  // what backlog estimation must subtract from the population estimate.
  std::uint64_t AccountedTags() const {
    return metrics_.tags_read + metrics_.ids_injected;
  }

  std::string name_;
  std::span<const TagId> population_;
  phy::PhyInterface& phy_;
  CollisionAwareConfig config_;
  anc::Pcg32 rng_;
  double omega_;

  DigestIndex digest_to_index_;
  std::vector<std::uint32_t> active_;          // indices of unread tags
  std::vector<std::uint32_t> pos_in_active_;   // inverse permutation
  std::vector<bool> read_;
  std::vector<bool> present_;  // churn: in-field flags over the universe

  RecordTracker tracker_;
  EmbeddedEstimator estimator_;
  // Constructed (and the extra rng split taken) only when config_.fault
  // requests at least one channel — the zero-cost-off guarantee that keeps
  // unfaulted runs bit-identical to pre-fault builds.
  std::unique_ptr<fault::FaultInjector> fault_;
  std::vector<phy::RecordHandle> expired_;  // TTL scratch, reused per frame
  // Pending newly-known tags, with whether each was itself recovered from
  // a collision record (those mark their downstream resolutions as
  // cascade ops in the trace).
  std::deque<std::pair<std::uint32_t, bool>> cascade_queue_;
  trace::TraceContext trace_;

  std::vector<std::uint32_t> participants_;    // reused per slot
  std::vector<TagId> learned_this_step_;       // cleared each Step()
  // One-slot batch scratch for the phy's batched interface: the engine
  // advances slot by slot, so each Step() submits a batch of one. All of
  // it lives inline — the steady-state slot loop performs no heap
  // allocation.
  std::array<std::uint64_t, 1> slot_scratch_{};
  std::array<std::uint32_t, 2> offsets_scratch_{};
  std::array<phy::SlotObservation, 1> obs_scratch_{};
  std::vector<RecordTracker::Resolution> resolutions_;  // cascade scratch

  std::uint64_t slot_index_ = 0;
  std::uint64_t slot_in_frame_ = 0;
  std::uint64_t frame_nc_ = 0;
  std::uint64_t frame_acked_at_start_ = 0;
  double frame_p_effective_ = 0.0;
  double frame_backlog_used_ = 1.0;
  bool frame_had_probe_ = false;

  int consecutive_empties_ = 0;
  int consecutive_collisions_ = 0;
  // Multiplicative backlog floor driven by collision streaks: the
  // reader's only signal that more tags contend than its accounting says
  // (e.g. identified tags re-transmitting because their acknowledgement
  // was lost). Doubles after a long all-collision streak, halves on any
  // non-collision slot.
  double collision_boost_ = 1.0;
  bool probe_pending_ = false;
  bool finished_ = false;
  std::uint64_t resolved_this_slot_ = 0;

  sim::RunMetrics metrics_;
};

}  // namespace anc::core
