#include "core/record_tracker.h"

#include <array>
#include <utility>

namespace anc::core {

RecordTracker::RecordTracker(std::size_t n_tags)
    : chain_head_(n_tags, kNil),
      chain_tail_(n_tags, kNil),
      chain_live_(n_tags, kNil) {}

void RecordTracker::EnsureSlot(std::uint32_t index) {
  if (index >= records_.size()) {
    records_.resize(static_cast<std::size_t>(index) + 1);
  }
}

void RecordTracker::PushKnown(RecordState& state, std::uint32_t tag) {
  // The capacity bound keeps a duplicate feed (a tag re-learned through
  // two paths) from spilling into the next record's arena slice; a record
  // saturated with duplicates simply never satisfies the phy's
  // knowns == constituents - 1 resolve condition, exactly as the
  // unbounded per-record vector behaved.
  if (state.knowns_len < state.knowns_cap) {
    knowns_arena_[state.knowns_offset + state.knowns_len] = tag;
    ++state.knowns_len;
  }
}

phy::RecordHandle RecordTracker::Register(
    phy::RecordHandle handle, std::span<const std::uint32_t> participants) {
  EnsureSlot(handle.index());
  RecordState& state = records_[handle.index()];
  state.open = true;
  state.knowns_offset = static_cast<std::uint32_t>(knowns_arena_.size());
  state.knowns_len = 0;
  state.knowns_cap = static_cast<std::uint32_t>(participants.size());
  knowns_arena_.resize(knowns_arena_.size() + participants.size());
  ++open_records_;
  for (std::uint32_t tag : participants) {
    const auto node = static_cast<std::uint32_t>(chain_nodes_.size());
    chain_nodes_.push_back({handle, kNil});
    if (chain_head_[tag] == kNil) {
      chain_head_[tag] = node;
    } else {
      chain_nodes_[chain_tail_[tag]].next = node;
    }
    chain_tail_[tag] = node;
    if (chain_live_[tag] == kNil) chain_live_[tag] = node;
  }
  if (ledger_ == nullptr) return phy::kInvalidRecord;
  return ledger_->Open(handle, participants.size());
}

void RecordTracker::CloseResolved(phy::RecordHandle handle,
                                  RecordState& state,
                                  phy::PhyInterface& phy) {
  state.open = false;
  --open_records_;
  phy.ReleaseRecord(handle);
  if (ledger_ != nullptr) {
    ledger_->Close(handle, fault::RecordLedger::CloseReason::kResolved);
  }
}

bool RecordTracker::SkipsPhy(phy::RecordHandle handle,
                             const RecordState& state,
                             const phy::PhyInterface& phy) const {
  // A bit-rotted record fails its CRC check at resolve time regardless of
  // how many constituents are known.
  return (ledger_ != nullptr && ledger_->IsCorrupt(handle)) ||
         phy.RejectsResolve(handle, state.knowns_len);
}

void RecordTracker::OnResolveMiss(phy::RecordHandle handle,
                                  RecordState& state,
                                  phy::PhyInterface& phy) {
  if (ledger_ == nullptr) return;
  if (ledger_->OnResolveFailed(handle)) {
    // Retry budget spent: drop the record here and now. The engine picks
    // the handle up through TakeRetryAbandoned() for tracing/metrics.
    state.open = false;
    --open_records_;
    phy.ReleaseRecord(handle);
    ledger_->Close(handle, fault::RecordLedger::CloseReason::kAbandonedRetry);
    retry_abandoned_.push_back(handle);
  }
}

std::optional<RecordTracker::Resolution> RecordTracker::AddKnownParticipant(
    phy::RecordHandle handle, std::uint32_t tag, phy::PhyInterface& phy) {
  if (handle.index() >= records_.size()) return std::nullopt;
  RecordState& state = records_[handle.index()];
  if (!state.open) return std::nullopt;
  PushKnown(state, tag);
  if (ledger_ != nullptr) ledger_->OnProgress(handle);
  std::optional<TagId> id;
  if (!SkipsPhy(handle, state, phy)) {
    const phy::ResolveRequest request{handle, KnownsOf(state)};
    std::optional<TagId> result;
    phy.TryResolveBatch({&request, 1}, {&result, 1});
    id = result;
  }
  if (id) {
    CloseResolved(handle, state, phy);
    return Resolution{*id, handle};
  }
  OnResolveMiss(handle, state, phy);
  return std::nullopt;
}

void RecordTracker::OnIdKnown(std::uint32_t tag, phy::PhyInterface& phy,
                              std::vector<Resolution>* out) {
  out->clear();
  requests_scratch_.clear();
  pending_scratch_.clear();
  // Pass 1: feed the known into every open record the tag transmitted in
  // and collect the resolve attempts. Records the ledger marked corrupt,
  // and requests the phy says it would reject, still count the miss
  // against their retry budget but never reach the phy. The known slices
  // live in knowns_arena_, which cannot reallocate here (every record's
  // capacity was reserved at Register), so the request spans stay valid
  // across the batch call. The walk starts at the tag's live cursor,
  // first moved past the closed prefix of its chain; closed records
  // further on are skipped as before, so the visit order is the full
  // chain's.
  std::uint32_t& live = chain_live_[tag];
  while (live != kNil && !records_[chain_nodes_[live].record.index()].open) {
    live = chain_nodes_[live].next;
  }
  for (std::uint32_t node = live; node != kNil;
       node = chain_nodes_[node].next) {
    const phy::RecordHandle handle = chain_nodes_[node].record;
    RecordState& state = records_[handle.index()];
    if (!state.open) continue;
    PushKnown(state, tag);
    if (ledger_ != nullptr) ledger_->OnProgress(handle);
    const bool skip = SkipsPhy(handle, state, phy);
    pending_scratch_.push_back({handle, skip});
    if (!skip) {
      requests_scratch_.push_back({handle, KnownsOf(state)});
    }
  }
  if (!requests_scratch_.empty()) {
    results_scratch_.resize(requests_scratch_.size());
    phy.TryResolveBatch(requests_scratch_, results_scratch_);
  }
  // Pass 2: fold the results back in record order. Batching is
  // equivalent to the old record-at-a-time loop because resolving one
  // record never changes another's known set — the tag being learned
  // here is the only new information, and it was fed to all of them
  // before any attempt.
  std::size_t ri = 0;
  for (const Pending& pending : pending_scratch_) {
    std::optional<TagId> id;
    if (!pending.skip) id = results_scratch_[ri++];
    RecordState& state = records_[pending.handle.index()];
    if (id) {
      CloseResolved(pending.handle, state, phy);
      out->push_back({*id, pending.handle});
    } else {
      OnResolveMiss(pending.handle, state, phy);
    }
  }
}

void RecordTracker::Abandon(phy::RecordHandle handle, phy::PhyInterface& phy,
                            fault::RecordLedger::CloseReason reason) {
  if (handle.index() >= records_.size()) return;
  RecordState& state = records_[handle.index()];
  if (!state.open) return;
  state.open = false;
  --open_records_;
  phy.ReleaseRecord(handle);
  if (ledger_ != nullptr) ledger_->Close(handle, reason);
}

std::size_t RecordTracker::ReleaseAll(
    phy::PhyInterface& phy, fault::RecordLedger::CloseReason reason) {
  std::size_t released = 0;
  for (std::uint32_t i = first_maybe_open_; i < records_.size(); ++i) {
    if (!records_[i].open) continue;
    Abandon(phy::RecordHandle{i}, phy, reason);
    ++released;
  }
  first_maybe_open_ = static_cast<std::uint32_t>(records_.size());
  return released;
}

std::vector<phy::RecordHandle> RecordTracker::TakeRetryAbandoned() {
  return std::exchange(retry_abandoned_, {});
}

void RecordTracker::SaveState(anc::ser::Pieces& out) const {
  records_cache_.Update(
      records_,
      [](const RecordState& state) {
        return std::array<std::uint64_t, 4>{state.knowns_offset,
                                            state.knowns_len, state.knowns_cap,
                                            state.open};
      },
      [this](std::size_t i) { return records_[i].open; });
  // The watched records are the open ones. Their known slices ascend
  // without overlap (Register appends them; RestoreState checks it), so
  // one cursor walks the unfilled ranges along the ascending positions.
  std::vector<std::pair<std::size_t, std::size_t>> unfilled;  // [begin, end)
  records_cache_.ForEachWatched([&](std::size_t i) {
    const RecordState& state = records_[i];
    if (state.knowns_len < state.knowns_cap) {
      unfilled.emplace_back(state.knowns_offset + state.knowns_len,
                            state.knowns_offset + state.knowns_cap);
    }
  });
  std::size_t range = 0;  // first range not wholly below the position
  knowns_cache_.Update(knowns_arena_, ser::Value{}, [&](std::size_t pos) {
    while (range < unfilled.size() && unfilled[range].second <= pos) ++range;
    return range < unfilled.size() && unfilled[range].first <= pos;
  });
  chain_cache_.Update(
      chain_nodes_,
      [](const ChainNode& node) {
        return std::array<std::uint64_t, 2>{node.record.index(), node.next};
      },
      [this](std::size_t i) { return chain_nodes_[i].next == kNil; });

  std::string& bytes = out.bytes();
  ser::PutVarint(bytes, records_.size());
  records_cache_.AppendTo(out);
  ser::PutVarint(bytes, knowns_arena_.size());
  knowns_cache_.AppendTo(out);
  ser::PutVarint(bytes, chain_nodes_.size());
  chain_cache_.AppendTo(out);
  ser::PutVarints(bytes, chain_head_);
  ser::AppendVarints(bytes, chain_tail_);
  ser::PutVarint(bytes, open_records_);
  ser::PutVarints(bytes, retry_abandoned_, [](phy::RecordHandle h) {
    return std::array<std::uint64_t, 1>{h.index()};
  });
}

void RecordTracker::SaveState(std::string* out) const {
  ser::Pieces pieces;
  SaveState(pieces);
  pieces.AppendTo(*out);
}

bool RecordTracker::RestoreState(anc::ser::Reader& r) {
  records_cache_.Clear();
  knowns_cache_.Clear();
  chain_cache_.Clear();
  records_.assign(static_cast<std::size_t>(r.Count()), RecordState{});
  std::size_t open = 0;
  for (RecordState& state : records_) {
    const std::uint64_t offset = r.Varint();
    const std::uint64_t len = r.Varint();
    const std::uint64_t cap = r.Varint();
    if (len > cap || cap > UINT32_MAX || offset > UINT32_MAX - cap) {
      return false;
    }
    state.knowns_offset = static_cast<std::uint32_t>(offset);
    state.knowns_len = static_cast<std::uint32_t>(len);
    state.knowns_cap = static_cast<std::uint32_t>(cap);
    state.open = r.Bool();
    open += state.open ? 1 : 0;
  }
  const std::size_t n_tags = chain_head_.size();
  knowns_arena_.assign(static_cast<std::size_t>(r.Count()), 0);
  for (std::uint32_t& tag : knowns_arena_) {
    const std::uint64_t v = r.Varint();
    if (v >= n_tags) return false;
    tag = static_cast<std::uint32_t>(v);
  }
  // Known slices lie inside the arena and, as Register lays them out,
  // ascend in record order without overlap.
  std::uint64_t slices_end = 0;
  for (const RecordState& state : records_) {
    const std::uint64_t end =
        std::uint64_t{state.knowns_offset} + state.knowns_cap;
    if (end > knowns_arena_.size()) return false;
    if (state.knowns_cap == 0) continue;
    if (state.knowns_offset < slices_end) return false;
    slices_end = end;
  }
  chain_nodes_.assign(static_cast<std::size_t>(r.Count()), ChainNode{});
  const std::size_t n_nodes = chain_nodes_.size();
  const auto node_ok = [n_nodes](std::uint64_t v) {
    return v == kNil || v < n_nodes;
  };
  for (ChainNode& node : chain_nodes_) {
    const std::uint64_t record = r.Varint();
    const std::uint64_t next = r.Varint();
    if (record >= records_.size() || !node_ok(next)) return false;
    node.record = phy::RecordHandle(static_cast<std::uint32_t>(record));
    node.next = static_cast<std::uint32_t>(next);
  }
  if (r.Varint() != n_tags) return false;  // population mismatch
  for (std::vector<std::uint32_t>* ends : {&chain_head_, &chain_tail_}) {
    for (std::uint32_t& end : *ends) {
      const std::uint64_t v = r.Varint();
      if (!node_ok(v)) return false;
      end = static_cast<std::uint32_t>(v);
    }
  }
  // Every node lies on exactly one tag's chain, which runs from its head
  // to its tail: the walks in OnIdKnown end, and Register links a new
  // node after a real tail.
  std::vector<bool> seen(n_nodes, false);
  std::size_t walked = 0;
  for (std::size_t tag = 0; tag < n_tags; ++tag) {
    std::uint32_t last = kNil;
    for (std::uint32_t node = chain_head_[tag]; node != kNil;
         node = chain_nodes_[node].next) {
      if (seen[node]) return false;
      seen[node] = true;
      ++walked;
      last = node;
    }
    if (last != chain_tail_[tag]) return false;
  }
  if (walked != n_nodes) return false;
  chain_live_ = chain_head_;
  first_maybe_open_ = 0;
  open_records_ = static_cast<std::size_t>(r.Varint());
  if (open_records_ != open) return false;
  retry_abandoned_.assign(static_cast<std::size_t>(r.Count()),
                          phy::RecordHandle{});
  for (phy::RecordHandle& h : retry_abandoned_) {
    const std::uint64_t v = r.Varint();
    if (v >= records_.size()) return false;
    h = phy::RecordHandle(static_cast<std::uint32_t>(v));
  }
  return r.ok;
}

}  // namespace anc::core
