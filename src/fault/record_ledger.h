// Per-record fault bookkeeping for the bounded collision-record store:
// open/close lifecycle, eviction-victim selection, resolve-failure and
// TTL budgets, and bit-rot corruption marks.
//
// The ledger never touches the phy or the protocol's record index — it
// only *decides* and *accounts*. RecordTracker (src/core) consults it on
// every register/resolve and performs the actual close + signal release;
// the engine drives the clock (Tick), drains TTL expiries at frame
// boundaries, and turns ledger decisions into trace events.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "fault/fault_config.h"
#include "phy/slot.h"

namespace anc::fault {

class RecordLedger {
 public:
  // Which gate a record left the store through (see FaultCounters).
  enum class CloseReason : std::uint8_t {
    kResolved = 0,
    kEvicted = 1,
    kAbandonedRetry = 2,
    kAbandonedTtl = 3,
    kCrashDropped = 4,
    kReleasedAtEnd = 5,
  };

  // `counters` and `rng` must outlive the ledger (both live in the owning
  // FaultInjector); `rng` is only drawn from under EvictionPolicy::kRandom.
  RecordLedger(const RecordStorePolicy& policy, FaultCounters* counters,
               anc::Pcg32* rng)
      : policy_(policy), counters_(counters), rng_(rng) {}

  // Engine clock, advanced once per Step() (after the frame counter).
  // Also samples the store-occupancy high-water mark, so the mark reflects
  // steady per-slot occupancy, never the transient over-cap instant
  // between Open() and the eviction it requested.
  void Tick(std::uint64_t slot, std::uint64_t frame);

  // A record with `k` constituents entered the store. Returns the victim
  // to evict when the store is over capacity (possibly the new record
  // itself, under kLargestK), or phy::kInvalidRecord when within budget.
  phy::RecordHandle Open(phy::RecordHandle handle, std::size_t k);

  // A known participant joined the record's known set (LRU signal).
  void OnProgress(phy::RecordHandle handle);

  // TryResolve failed for `handle`. Returns true when the retry budget is
  // exhausted and the caller must abandon the record.
  bool OnResolveFailed(phy::RecordHandle handle);

  // Bit-rot strike: marks the oldest still-clean open record corrupt and
  // returns it (phy::kInvalidRecord when every open record is already
  // corrupt or the store is empty). Corrupt records fail CRC at resolve
  // time — IsCorrupt() gates RecordTracker's TryResolve attempts.
  phy::RecordHandle CorruptOldest();
  bool IsCorrupt(phy::RecordHandle handle) const;

  // The record left the store; updates the per-reason counter.
  void Close(phy::RecordHandle handle, CloseReason reason);

  // Appends every open record whose age exceeds the TTL budget (in
  // frames) to `expired`. No-op when the budget is unlimited.
  void ExpireTtl(std::vector<phy::RecordHandle>* expired) const;

  std::size_t open_count() const { return open_.size(); }
  const RecordStorePolicy& policy() const { return policy_; }
  bool TtlEnabled() const { return policy_.max_open_frames > 0; }

  // Checkpoint hooks (common/serialize.h wire format). The policy,
  // counters and rng are construction-wired; only the clock and the
  // per-record metadata travel.
  void SaveState(std::string* out) const {
    ser::PutVarint(*out, slot_);
    ser::PutVarint(*out, frame_);
    ser::PutVarint(*out, metas_.size());
    for (const Meta& m : metas_) {
      ser::PutVarint(*out, m.opened_slot);
      ser::PutVarint(*out, m.opened_frame);
      ser::PutVarint(*out, m.last_progress_slot);
      ser::PutVarint(*out, m.k);
      ser::PutVarint(*out, m.resolve_failures);
      ser::PutBool(*out, m.open);
      ser::PutBool(*out, m.corrupt);
    }
    ser::PutVarint(*out, open_.size());
    for (phy::RecordHandle h : open_) ser::PutVarint(*out, h.index());
  }
  // RestoreState rejects an open list that is not exactly the open
  // records, each once: victim picks and TTL sweeps index metas_ by it.
  bool RestoreState(ser::Reader& r) {
    slot_ = r.Varint();
    frame_ = r.Varint();
    metas_.assign(static_cast<std::size_t>(r.Count()), Meta{});
    std::size_t open = 0;
    for (Meta& m : metas_) {
      m.opened_slot = r.Varint();
      m.opened_frame = r.Varint();
      m.last_progress_slot = r.Varint();
      m.k = static_cast<std::uint32_t>(r.Varint());
      m.resolve_failures = static_cast<std::uint32_t>(r.Varint());
      m.open = r.Bool();
      m.corrupt = r.Bool();
      open += m.open ? 1 : 0;
    }
    open_.assign(static_cast<std::size_t>(r.Count()), phy::RecordHandle{});
    if (open_.size() != open) return false;
    std::vector<bool> listed(metas_.size(), false);
    for (phy::RecordHandle& h : open_) {
      const std::uint64_t v = r.Varint();
      if (v >= metas_.size() || !metas_[v].open || listed[v]) return false;
      listed[v] = true;
      h = phy::RecordHandle(static_cast<std::uint32_t>(v));
    }
    return r.ok;
  }

 private:
  struct Meta {
    std::uint64_t opened_slot = 0;
    std::uint64_t opened_frame = 0;
    std::uint64_t last_progress_slot = 0;
    std::uint32_t k = 0;
    std::uint32_t resolve_failures = 0;
    bool open = false;
    bool corrupt = false;
  };

  phy::RecordHandle PickVictim();

  RecordStorePolicy policy_;
  FaultCounters* counters_;
  anc::Pcg32* rng_;
  std::uint64_t slot_ = 0;
  std::uint64_t frame_ = 0;
  std::vector<Meta> metas_;                 // indexed by record handle
  std::vector<phy::RecordHandle> open_;     // insertion (FIFO) order
};

}  // namespace anc::fault
