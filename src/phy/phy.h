// Physical-layer interface between the protocol engines and the channel.
//
// Protocols decide *who transmits when*; the phy decides *what the reader
// hears* and *whether a collision record yields the last constituent ID
// when all others are known*. Two implementations share this interface:
//
//   IdealPhy  — the abstraction the paper simulates: a k-collision record
//               with k <= lambda is resolvable once k-1 constituents are
//               known (Section III-B), optionally degraded by a resolution
//               success probability (Section IV-E).
//   SignalPhy — full waveform simulation: MSK synthesis per tag through a
//               static per-tag channel, AWGN at the reader, and resolution
//               by actual signal subtraction + demodulation + CRC.
//
// The interface is batched: callers hand over a frame's worth of slots as
// structure-of-arrays views (one flat participant array plus prefix
// offsets) and a preallocated observation span, and resolution requests as
// a span folded into a preallocated result span. This keeps the hot slot
// loop allocation-free and lets implementations run vectorized kernels (or
// a worker pool) over contiguous buffers instead of virtual-dispatching
// per slot. Determinism contract: both batch calls must produce results
// *as if* each slot / request were processed sequentially in span order —
// any internal RNG draws happen in that order, and implementations that
// parallelize internally must fold results back in request order.
//
// Participants are indices into the tag population the phy was constructed
// with. Protocols may record which collision records a tag participated in
// at observation time: this stands in for the reader's retroactive hash
// check H(ID|j) <= floor(p_j 2^l) (Section IV-B), which reconstructs the
// same information once the ID is known.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/tag_id.h"
#include "phy/slot.h"

namespace anc::phy {

// A batch of report segments in structure-of-arrays form: participants of
// slot i are participants[offsets[i] .. offsets[i+1]).
struct SlotBatch {
  std::span<const std::uint64_t> slot_indices;   // one entry per slot
  std::span<const std::uint32_t> participants;   // flat, grouped by slot
  std::span<const std::uint32_t> offsets;        // slots() + 1 prefix sums

  [[nodiscard]] std::size_t slots() const { return slot_indices.size(); }
  [[nodiscard]] std::span<const std::uint32_t> ParticipantsOf(
      std::size_t i) const {
    return participants.subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
};

// One resolution attempt: the record plus the constituents whose IDs (and,
// for SignalPhy, reference waveforms) the reader already holds.
struct ResolveRequest {
  RecordHandle record;
  std::span<const std::uint32_t> known_participants;
};

class PhyInterface {
 public:
  virtual ~PhyInterface() = default;

  // Simulates the report segments of `batch` into `out` (same length as
  // batch.slots()). Collision (and corrupted-singleton) slots allocate a
  // record that stays valid until ReleaseRecord.
  virtual void ObserveBatch(const SlotBatch& batch,
                            std::span<SlotObservation> out) = 0;

  // Attempts each request in order: recovers one more ID from the record
  // given that the reader already knows the IDs of the request's
  // known_participants (tag indices). out[i] holds the recovered ID when
  // subtraction + demodulation + CRC succeed for requests[i].
  virtual void TryResolveBatch(std::span<const ResolveRequest> requests,
                               std::span<std::optional<TagId>> out) = 0;

  // True when a request for `record` with `knowns` known constituents
  // would recover no ID before any side effect (no RNG draw, no stored
  // reference, no record change), judged from the phy's configuration
  // and record state alone. Callers may then leave the request out of
  // their batch and book the miss themselves: the outcome is the same.
  // The default, false, keeps every request; a phy (or a wrapper over
  // one) that does not answer is sent everything.
  [[nodiscard]] virtual bool RejectsResolve(RecordHandle /*record*/,
                                            std::size_t /*knowns*/) const {
    return false;
  }

  // Frees the stored mixed signal of a resolved or abandoned record.
  virtual void ReleaseRecord(RecordHandle record) = 0;

  // Number of records currently held (leak checking in tests).
  [[nodiscard]] virtual std::size_t OpenRecords() const = 0;
};

}  // namespace anc::phy
