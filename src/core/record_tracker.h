// Reader-side collision-record bookkeeping (Section IV-B): the store of
// recorded mixed signals that ANC later resolves, and the index that maps
// each learned tag ID to the records it participated in — the machinery
// behind Fig. 1's cascade and the Table III "IDs from collision slots"
// counts.
//
// For every learned ID the reader determines which outstanding collision
// records that tag transmitted in — in the real protocol by replaying the
// hash rule H(ID|j) <= floor(p_j 2^l) against each stored record, here by
// consulting the per-tag transmission log the simulator recorded at
// observation time (the hash rule is deterministic, so both views contain
// identical information; the log is just O(1) per lookup). The tag's
// signal is added to each record's known set and the resolutions are
// attempted as one phy batch; successes are returned so the engine can
// cascade. A request the phy says it would reject before any side effect
// (PhyInterface::RejectsResolve: on IdealPhy a k > lambda record, or one
// still missing more than one constituent) is not built at all; its miss
// is booked exactly as a rejected request's would be.
//
// Storage is arena-backed throughout: record metadata is a flat vector
// indexed by handle, known sets are fixed-capacity slices of one shared
// index array (capacity = the record's constituent count, reserved at
// registration), and the per-tag record lists are singly-linked chains
// through one node pool. Registering a record or feeding a known into it
// never allocates once the arenas reach steady-state capacity — the
// tracker's share of the engine's zero-allocation slot loop.
//
// A tag's chain holds every record it was ever in, and an open-world
// soak re-reads each tag again and again, so two derived indexes keep
// the cost of a learn and of a sweep independent of run history: a
// per-tag live cursor (the first chain node whose record may still be
// open — everything before it is closed) and a store-wide watermark
// (every record below it is closed). Both only move forward, because
// phy record handles are never reused, and neither is checkpointed:
// RestoreState rebuilds them conservatively (cursor = chain head,
// watermark = 0) and the first walk advances them again.
//
// Fault coupling (src/fault): when a RecordLedger is attached, the
// tracker reports every open/progress/close to it, refuses to resolve
// bit-rotted records (their CRC fails), and abandons a record on the spot
// when the ledger says its resolve-failure budget is spent — callers
// collect those through TakeRetryAbandoned() so the engine can trace and
// count them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/chunk_cache.h"
#include "common/serialize.h"
#include "common/tag_id.h"
#include "fault/record_ledger.h"
#include "phy/phy.h"

namespace anc::core {

class RecordTracker {
 public:
  explicit RecordTracker(std::size_t n_tags);

  // Attaches fault bookkeeping; `ledger` must outlive the tracker (it
  // lives in the engine's FaultInjector). Null (the default) keeps the
  // paper's unbounded, incorruptible store.
  void AttachFaultLedger(fault::RecordLedger* ledger) { ledger_ = ledger; }

  // A new collision record was observed with the given transmitters.
  // Returns the record the bounded store must evict to make room
  // (phy::kInvalidRecord when the store is unbounded or within capacity);
  // the caller abandons the victim via Abandon().
  phy::RecordHandle Register(phy::RecordHandle handle,
                             std::span<const std::uint32_t> participants);

  struct Resolution {
    TagId id;
    phy::RecordHandle record;
  };

  // `tag`'s ID has just become known to the reader. Feeds it into every
  // open record the tag participated in, attempting resolution through
  // one `phy` batch. Resolved records are closed and released; `out` is
  // cleared and filled with the resolutions in record (chain) order.
  void OnIdKnown(std::uint32_t tag, phy::PhyInterface& phy,
                 std::vector<Resolution>* out);

  // A tag whose ID the reader *already* holds transmitted in a freshly
  // registered record (it re-contends because its acknowledgement was
  // lost, Section IV-E). Adds it to that record's knowns and attempts
  // resolution. Returns the recovered ID, if any.
  std::optional<Resolution> AddKnownParticipant(phy::RecordHandle handle,
                                                std::uint32_t tag,
                                                phy::PhyInterface& phy);

  // Closes a still-open record without resolving it and releases its
  // stored signal (eviction, TTL expiry, or any other fault path). No-op
  // on already-closed records.
  void Abandon(phy::RecordHandle handle, phy::PhyInterface& phy,
               fault::RecordLedger::CloseReason reason);

  // Closes and releases every still-open record; returns how many. Used
  // by the engine's termination sweep (the open-record leak fix) and by
  // the crash path (volatile store lost at power-off).
  std::size_t ReleaseAll(phy::PhyInterface& phy,
                         fault::RecordLedger::CloseReason reason);

  // Records abandoned inside OnIdKnown/AddKnownParticipant because their
  // resolve-failure budget ran out, since the last call. The engine
  // drains this each step to emit trace events and metrics.
  std::vector<phy::RecordHandle> TakeRetryAbandoned();

  [[nodiscard]] std::size_t open_records() const { return open_records_; }

  // Checkpoint hooks (common/serialize.h wire format): the record arena,
  // the per-tag chains and the pending retry-abandon list. The ledger
  // pointer is re-attached by the owning engine after restore.
  //
  // The three arenas' encodings are cached between saves
  // (common/chunk_cache.h). Rows that can still change: an open record,
  // the unfilled part of an open record's known slice (PushKnown only
  // writes at its end), and a chain node whose `next` is kNil (`next` is
  // set at most once). A closed record never reopens: phy handles are
  // never reused.
  //
  // RestoreState rejects input that would index past an arena or break
  // the layout the cache relies on: a known slice outside knowns_arena_
  // or out of record order, a chain node naming a missing record or
  // node, a per-tag chain that is not a simple path from head to tail
  // covering every node once, and an open count that disagrees with the
  // rows.
  void SaveState(anc::ser::Pieces& out) const;
  void SaveState(std::string* out) const;
  bool RestoreState(anc::ser::Reader& r);

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct RecordState {
    std::uint32_t knowns_offset = 0;  // slice of knowns_arena_
    std::uint32_t knowns_len = 0;
    std::uint32_t knowns_cap = 0;     // = constituent count at Register
    bool open = false;
  };

  struct ChainNode {
    phy::RecordHandle record;
    std::uint32_t next = kNil;
  };

  struct Pending {
    phy::RecordHandle handle;
    bool skip = false;  // no phy attempt: a miss either way (SkipsPhy)
  };

  void EnsureSlot(std::uint32_t index);
  // Appends `tag` to the record's known slice (bounded by its capacity).
  void PushKnown(RecordState& state, std::uint32_t tag);
  [[nodiscard]] std::span<const std::uint32_t> KnownsOf(
      const RecordState& state) const {
    return {knowns_arena_.data() + state.knowns_offset, state.knowns_len};
  }
  void CloseResolved(phy::RecordHandle handle, RecordState& state,
                     phy::PhyInterface& phy);
  // True when a resolve attempt can only miss, so it need not reach the
  // phy: the ledger marked the record corrupt, or the phy would reject the
  // request (PhyInterface::RejectsResolve). The miss is booked as usual.
  [[nodiscard]] bool SkipsPhy(phy::RecordHandle handle,
                              const RecordState& state,
                              const phy::PhyInterface& phy) const;
  // Failure bookkeeping shared by both resolve paths: counts the failure
  // against the ledger budget and abandons the record when it is spent.
  void OnResolveMiss(phy::RecordHandle handle, RecordState& state,
                     phy::PhyInterface& phy);

  std::vector<RecordState> records_;
  std::vector<std::uint32_t> knowns_arena_;
  std::vector<ChainNode> chain_nodes_;
  std::vector<std::uint32_t> chain_head_;  // per tag
  std::vector<std::uint32_t> chain_tail_;
  // Derived, not checkpointed: per tag, the first node whose record may
  // be open (kNil when none may be); and the index below which every
  // record is closed.
  std::vector<std::uint32_t> chain_live_;
  std::uint32_t first_maybe_open_ = 0;
  std::size_t open_records_ = 0;
  fault::RecordLedger* ledger_ = nullptr;
  std::vector<phy::RecordHandle> retry_abandoned_;

  // Checkpoint encoding caches of the three arenas.
  mutable anc::ser::VarintChunkCache<4> records_cache_;
  mutable anc::ser::VarintChunkCache<1> knowns_cache_;
  mutable anc::ser::VarintChunkCache<2> chain_cache_;

  // Batch scratch, reused across OnIdKnown calls.
  std::vector<phy::ResolveRequest> requests_scratch_;
  std::vector<std::optional<TagId>> results_scratch_;
  std::vector<Pending> pending_scratch_;
};

}  // namespace anc::core
