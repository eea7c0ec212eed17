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
  if (ledger_ == nullptr || !ledger_->IsCorrupt(handle)) {
    // A bit-rotted record fails its CRC check at resolve time regardless
    // of how many constituents are known, so it never reaches the phy.
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
  // and collect the resolve attempts. Records the ledger marked corrupt
  // still count the miss against their retry budget but never reach the
  // phy. The known slices live in knowns_arena_, which cannot reallocate
  // here (every record's capacity was reserved at Register), so the
  // request spans stay valid across the batch call. The walk starts at
  // the tag's live cursor, first moved past the closed prefix of its
  // chain; closed records further on are skipped as before, so the visit
  // order is the full chain's.
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
    const bool corrupt = ledger_ != nullptr && ledger_->IsCorrupt(handle);
    pending_scratch_.push_back({handle, corrupt});
    if (!corrupt) {
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
    if (!pending.corrupt) id = results_scratch_[ri++];
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

void RecordTracker::SaveState(std::string* out) const {
  ser::PutVarints(*out, records_, [](const RecordState& state) {
    return std::array<std::uint64_t, 4>{state.knowns_offset, state.knowns_len,
                                        state.knowns_cap, state.open};
  });
  ser::PutVarints(*out, knowns_arena_);
  ser::PutVarints(*out, chain_nodes_, [](const ChainNode& node) {
    return std::array<std::uint64_t, 2>{node.record.index(), node.next};
  });
  ser::PutVarints(*out, chain_head_);
  ser::AppendVarints(*out, chain_tail_);
  ser::PutVarint(*out, open_records_);
  ser::PutVarints(*out, retry_abandoned_, [](phy::RecordHandle h) {
    return std::array<std::uint64_t, 1>{h.index()};
  });
}

bool RecordTracker::RestoreState(anc::ser::Reader& r) {
  records_.assign(static_cast<std::size_t>(r.Varint()), RecordState{});
  for (RecordState& state : records_) {
    state.knowns_offset = static_cast<std::uint32_t>(r.Varint());
    state.knowns_len = static_cast<std::uint32_t>(r.Varint());
    state.knowns_cap = static_cast<std::uint32_t>(r.Varint());
    state.open = r.Bool();
  }
  knowns_arena_.assign(static_cast<std::size_t>(r.Varint()), 0);
  for (std::uint32_t& tag : knowns_arena_) {
    tag = static_cast<std::uint32_t>(r.Varint());
  }
  chain_nodes_.assign(static_cast<std::size_t>(r.Varint()), ChainNode{});
  for (ChainNode& node : chain_nodes_) {
    node.record = phy::RecordHandle(static_cast<std::uint32_t>(r.Varint()));
    node.next = static_cast<std::uint32_t>(r.Varint());
  }
  const auto n_tags = static_cast<std::size_t>(r.Varint());
  if (n_tags != chain_head_.size()) return false;  // population mismatch
  for (std::uint32_t& head : chain_head_) {
    head = static_cast<std::uint32_t>(r.Varint());
  }
  for (std::uint32_t& tail : chain_tail_) {
    tail = static_cast<std::uint32_t>(r.Varint());
  }
  chain_live_ = chain_head_;
  first_maybe_open_ = 0;
  open_records_ = static_cast<std::size_t>(r.Varint());
  retry_abandoned_.assign(static_cast<std::size_t>(r.Varint()),
                          phy::RecordHandle{});
  for (phy::RecordHandle& h : retry_abandoned_) {
    h = phy::RecordHandle(static_cast<std::uint32_t>(r.Varint()));
  }
  return r.ok;
}

}  // namespace anc::core
