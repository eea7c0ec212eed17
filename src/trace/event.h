// Slot-level trace events: the structured per-slot stream every traced
// protocol emits (engine slots, record-store operations, acknowledgements,
// per-frame estimator snapshots, deployment TDMA slots).
//
// Design constraints, in priority order:
//   1. Determinism. A trace is a replay artifact: re-driving a protocol
//      from the recorded (base_seed, run_index) pair must reproduce the
//      event stream bit-for-bit (service/replay.h asserts exactly that), and
//      the same experiment traced under --threads 1/4/8 must serialize to
//      identical bytes. All event payloads are therefore integers — the
//      two time-like quantities (estimator value, elapsed air time) are
//      quantized at emission (Q8 fixed point / microseconds) so no raw
//      double ever reaches the stream.
//   2. Zero cost when off. Protocols hold a TraceContext whose sink
//      pointer is null by default; emission sites are a branch on that
//      pointer (see trace/sink.h).
//
// One struct covers every event kind; unused fields stay zero, which keeps
// equality, diffing and the binary codec trivial. The per-kind field
// meanings are documented on each field.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace anc::trace {

enum class EventKind : std::uint8_t {
  // A report slot completed (one per protocol Step() that ran a slot).
  kSlot = 1,
  // A frame boundary: collision count + estimator snapshot (Eq. 12 state).
  kFrame = 2,
  // A collision (or corrupted-singleton) record entered the record store.
  kRecordOpen = 3,
  // An open record resolved to a constituent ID (ANC subtraction).
  kRecordResolve = 4,
  // The reader acknowledged an ID (singleton ack, slot-index ack, re-ack).
  kAck = 5,
  // Deployment record sharing: a neighbour-broadcast ID was accepted.
  kInject = 6,
  // Deployment global TDMA slot: which scheduler slot fired, how many
  // readers were active in it.
  kTdmaSlot = 7,
  // Run terminated (emitted by the driver, after the protocol finished or
  // hit the livelock cap).
  kRunEnd = 8,
  // A fault-injection event (src/fault): eviction, abandonment,
  // corruption, reader crash, deployment reader death / reschedule. The
  // `fault` field carries the sub-kind.
  kFault = 9,
  // --- Service-mode churn events (src/service). Emitted by the
  // InventoryService driver interleaved with the wrapped protocol's own
  // stream; a soak run replays event-for-event from its header because
  // the churn schedule is a pure function of (base_seed, run_index,
  // service profile) — the profile label rides the protocol name. ---
  // A tag entered the field (id_digest; n_c = live population after).
  kArrive = 10,
  // A tag left the field (id_digest; n_c = live population after;
  // estimate_q8 = 1 when it departed without ever being detected).
  kDepart = 11,
  // The service first detected a tag since its arrival (id_digest;
  // n_c = detection latency in service slots; cascade = ghost, i.e. the
  // detection landed after the tag had already departed).
  kDetect = 12,
  // Periodic inventory snapshot (frame = epoch index; n_c = live
  // population; record = detected-and-present tags; responders = departed
  // tags still reported present (ghosts); estimate_q8 = staleness p99 in
  // slots, Q8; elapsed_us = cumulative air time).
  kEpoch = 13,
};

// Sub-kind of a kFault event (the fault layer's own taxonomy; see
// src/fault/fault_config.h for the model behind each).
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kEviction = 1,       // bounded store evicted an open record
  kAbandonRetry = 2,   // resolve-failure budget exhausted
  kAbandonTtl = 3,     // open-frames TTL budget exhausted
  kBitRot = 4,         // a stored record was corrupted in place
  kAdvertCorrupt = 5,  // a frame advertisement never reached the tags
  kCrash = 6,          // reader power-cycled mid-inventory
  kReaderDead = 7,     // deployment reader permanently powered off
  kReschedule = 8,     // TDMA schedule rebuilt over the survivors
};

// Reader-observed slot outcome. A corrupted singleton is traced as a
// collision: to the reader the two are indistinguishable (Section III-B).
enum class SlotOutcome : std::uint8_t {
  kEmpty = 0,
  kSingleton = 1,
  kCollision = 2,
};

enum class AckKind : std::uint8_t {
  kNone = 0,
  kSingletonId = 1,  // positive ack of a cleanly decoded singleton
  kSlotIndex = 2,    // 23-bit slot-index ack of a resolved record (FCAT)
  kFullId = 3,       // 96-bit ID ack of a resolved record (SCAT)
  kReAck = 4,        // duplicate reception re-acknowledged (lost-ack path)
  kInjected = 5,     // silenced via a neighbouring reader's broadcast
};

// Fixed-point scale for estimator snapshots (Q8: 1/256 tag resolution).
inline constexpr double kEstimateScale = 256.0;

inline std::uint64_t QuantizeEstimate(double estimate) {
  return estimate > 0.0
             ? static_cast<std::uint64_t>(std::llround(estimate * kEstimateScale))
             : 0;
}

inline std::uint64_t QuantizeSeconds(double seconds) {
  return seconds > 0.0
             ? static_cast<std::uint64_t>(std::llround(seconds * 1e6))
             : 0;
}

struct TraceEvent {
  EventKind kind = EventKind::kSlot;
  // Deployment reader id: 0 = single-reader run (or the deployment layer
  // itself); readers are numbered 1..R in grid order.
  std::uint32_t reader = 0;
  // Protocol-local slot index; for kTdmaSlot the global scheduler slot.
  std::uint64_t slot = 0;
  // 1-based frame number current at emission (kTdmaSlot/kRunEnd: unused).
  std::uint64_t frame = 0;
  // kSlot: reader-observed outcome.
  SlotOutcome outcome = SlotOutcome::kEmpty;
  // kSlot: transmitting tags; kTdmaSlot: active readers this slot.
  std::uint32_t responders = 0;
  // kRecordOpen/kRecordResolve: record handle; kFrame: open records at the
  // frame boundary (store occupancy); kRunEnd: tags_read.
  std::uint64_t record = 0;
  // kRecordResolve/kAck/kInject: 64-bit digest of the tag ID involved.
  std::uint64_t id_digest = 0;
  // kAck: how the ID was acknowledged.
  AckKind ack = AckKind::kNone;
  // kRecordResolve: true when the resolution fired from the cascade (the
  // enabling ID itself came out of a record), false when seeded directly
  // by a singleton/capture/injection.
  bool cascade = false;
  // kFrame: collision slots in the frame (n_c); kRunEnd: unresolved
  // records left open.
  std::uint64_t n_c = 0;
  // kFrame: estimator snapshot N-hat, Q8 fixed point (QuantizeEstimate);
  // kRunEnd: 1 if the run hit the livelock cap.
  std::uint64_t estimate_q8 = 0;
  // kFrame/kRunEnd: cumulative elapsed air time, microseconds.
  std::uint64_t elapsed_us = 0;
  // kFault: the fault sub-kind (record = affected record handle or reader
  // index; n_c = auxiliary count, e.g. records dropped by a crash).
  FaultKind fault = FaultKind::kNone;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

// Identifies one traced run. base_seed/run_index reproduce the exact RNG
// streams (run i derives Pcg32(base_seed + i, GOLDEN_GAMMA + i); RunOnce's
// seed s is the (0, s) pair), n_tags/max_slots_per_tag the population and
// driver cap — together with the factory, everything replay needs.
struct RunHeader {
  std::uint64_t run_index = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t n_tags = 0;
  std::uint64_t max_slots_per_tag = 0;
  std::string protocol;  // Protocol::name() at run start

  friend bool operator==(const RunHeader&, const RunHeader&) = default;
};

inline const char* KindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSlot: return "slot";
    case EventKind::kFrame: return "frame";
    case EventKind::kRecordOpen: return "record_open";
    case EventKind::kRecordResolve: return "record_resolve";
    case EventKind::kAck: return "ack";
    case EventKind::kInject: return "inject";
    case EventKind::kTdmaSlot: return "tdma_slot";
    case EventKind::kRunEnd: return "run_end";
    case EventKind::kFault: return "fault";
    case EventKind::kArrive: return "arrive";
    case EventKind::kDepart: return "depart";
    case EventKind::kDetect: return "detect";
    case EventKind::kEpoch: return "epoch";
  }
  return "?";
}

inline const char* FaultName(FaultKind fault) {
  switch (fault) {
    case FaultKind::kNone: return "none";
    case FaultKind::kEviction: return "eviction";
    case FaultKind::kAbandonRetry: return "abandon_retry";
    case FaultKind::kAbandonTtl: return "abandon_ttl";
    case FaultKind::kBitRot: return "bit_rot";
    case FaultKind::kAdvertCorrupt: return "advert_corrupt";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kReaderDead: return "reader_dead";
    case FaultKind::kReschedule: return "reschedule";
  }
  return "?";
}

inline const char* OutcomeName(SlotOutcome outcome) {
  switch (outcome) {
    case SlotOutcome::kEmpty: return "empty";
    case SlotOutcome::kSingleton: return "singleton";
    case SlotOutcome::kCollision: return "collision";
  }
  return "?";
}

inline const char* AckName(AckKind ack) {
  switch (ack) {
    case AckKind::kNone: return "none";
    case AckKind::kSingletonId: return "singleton_id";
    case AckKind::kSlotIndex: return "slot_index";
    case AckKind::kFullId: return "full_id";
    case AckKind::kReAck: return "re_ack";
    case AckKind::kInjected: return "injected";
  }
  return "?";
}

// One-line human-readable rendering (trace_inspect filter/diff output).
inline std::string Describe(const TraceEvent& e) {
  std::string s = std::string(KindName(e.kind)) +
                  " reader=" + std::to_string(e.reader) +
                  " slot=" + std::to_string(e.slot) +
                  " frame=" + std::to_string(e.frame);
  switch (e.kind) {
    case EventKind::kSlot:
      s += std::string(" outcome=") + OutcomeName(e.outcome) +
           " responders=" + std::to_string(e.responders);
      break;
    case EventKind::kFrame:
      s += " n_c=" + std::to_string(e.n_c) + " estimate=" +
           std::to_string(static_cast<double>(e.estimate_q8) / kEstimateScale) +
           " open_records=" + std::to_string(e.record) +
           " elapsed_us=" + std::to_string(e.elapsed_us);
      break;
    case EventKind::kRecordOpen:
      s += " record=" + std::to_string(e.record);
      break;
    case EventKind::kRecordResolve:
      s += " record=" + std::to_string(e.record) +
           " id=" + std::to_string(e.id_digest) +
           (e.cascade ? " cascade" : " direct");
      break;
    case EventKind::kAck:
      s += std::string(" ack=") + AckName(e.ack) +
           " id=" + std::to_string(e.id_digest);
      break;
    case EventKind::kInject:
      s += " id=" + std::to_string(e.id_digest);
      break;
    case EventKind::kTdmaSlot:
      s += " active_readers=" + std::to_string(e.responders);
      break;
    case EventKind::kRunEnd:
      s += " tags_read=" + std::to_string(e.record) +
           " unresolved=" + std::to_string(e.n_c) +
           " capped=" + std::to_string(e.estimate_q8) +
           " elapsed_us=" + std::to_string(e.elapsed_us);
      break;
    case EventKind::kFault:
      s += std::string(" fault=") + FaultName(e.fault) +
           " record=" + std::to_string(e.record) +
           " aux=" + std::to_string(e.n_c);
      break;
    case EventKind::kArrive:
      s += " id=" + std::to_string(e.id_digest) +
           " population=" + std::to_string(e.n_c);
      break;
    case EventKind::kDepart:
      s += " id=" + std::to_string(e.id_digest) +
           " population=" + std::to_string(e.n_c) +
           (e.estimate_q8 ? " missed" : " detected");
      break;
    case EventKind::kDetect:
      s += " id=" + std::to_string(e.id_digest) +
           " latency_slots=" + std::to_string(e.n_c) +
           (e.cascade ? " ghost" : "");
      break;
    case EventKind::kEpoch:
      s += " population=" + std::to_string(e.n_c) +
           " detected=" + std::to_string(e.record) +
           " ghosts=" + std::to_string(e.responders) +
           " staleness_p99=" +
           std::to_string(static_cast<double>(e.estimate_q8) /
                          kEstimateScale) +
           " elapsed_us=" + std::to_string(e.elapsed_us);
      break;
  }
  return s;
}

// The terminal event the experiment driver appends after a run completes
// (also reproduced by the replay verifier, so it participates in the
// event-for-event identity check).
inline TraceEvent RunEndEvent(std::uint64_t tags_read,
                              std::uint64_t total_slots,
                              std::uint64_t unresolved_records,
                              double elapsed_seconds, bool capped) {
  TraceEvent e;
  e.kind = EventKind::kRunEnd;
  e.slot = total_slots;
  e.record = tags_read;
  e.n_c = unresolved_records;
  e.estimate_q8 = capped ? 1 : 0;
  e.elapsed_us = QuantizeSeconds(elapsed_seconds);
  return e;
}

}  // namespace anc::trace
