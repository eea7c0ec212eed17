#include "core/engine.h"

#include <algorithm>

#include "analysis/omega.h"
#include "common/hash.h"

namespace anc::core {
namespace {
constexpr std::uint32_t kNotActive = ~std::uint32_t{0};
}  // namespace

CollisionAwareEngine::CollisionAwareEngine(std::string name,
                                           std::span<const TagId> population,
                                           phy::PhyInterface& phy,
                                           CollisionAwareConfig config,
                                           anc::Pcg32 rng)
    : name_(std::move(name)),
      population_(population),
      phy_(phy),
      config_(config),
      rng_(rng),
      omega_(config.omega > 0.0 ? config.omega
                                : analysis::OptimalOmega(config.lambda)),
      digest_to_index_(IndexByDigest(population)),
      tracker_(population.size()),
      estimator_(config.frame_size, omega_,
                 config.initial_estimate > 0.0
                     ? config.initial_estimate
                     : static_cast<double>(config.frame_size),
                 config.estimator_window) {
  active_.resize(population.size());
  pos_in_active_.resize(population.size());
  read_.assign(population.size(), false);
  present_.assign(population.size(), true);
  for (std::uint32_t i = 0; i < population.size(); ++i) {
    active_[i] = i;
    pos_in_active_[i] = i;
  }
  if (config_.fault.Any()) {
    fault_ = std::make_unique<fault::FaultInjector>(config_.fault,
                                                    rng_.Split());
    tracker_.AttachFaultLedger(&fault_->ledger());
  }
}

void CollisionAwareEngine::EmitFault(trace::FaultKind kind,
                                     phy::RecordHandle record,
                                     std::uint64_t aux) {
  if (!trace_) return;
  trace::TraceEvent e;
  e.kind = trace::EventKind::kFault;
  e.slot = slot_index_;
  e.frame = metrics_.frames;
  e.fault = kind;
  e.record = record.index();
  e.n_c = aux;
  trace_.Emit(e);
}

void CollisionAwareEngine::HandleEviction(phy::RecordHandle victim) {
  if (!victim.valid()) return;
  tracker_.Abandon(victim, phy_,
                   fault::RecordLedger::CloseReason::kEvicted);
  ++metrics_.records_evicted;
  EmitFault(trace::FaultKind::kEviction, victim, 0);
}

void CollisionAwareEngine::DrainRetryAbandoned() {
  if (!fault_) return;
  for (phy::RecordHandle handle : tracker_.TakeRetryAbandoned()) {
    ++metrics_.records_abandoned;
    EmitFault(trace::FaultKind::kAbandonRetry, handle, 0);
  }
}

void CollisionAwareEngine::Finish() {
  finished_ = true;
  // unresolved_records is sampled before the terminal sweep so the metric
  // (and the RunEnd trace payload) still reports what the protocol left
  // unresolved; the sweep then returns those signals to the phy store.
  metrics_.unresolved_records = phy_.OpenRecords();
  tracker_.ReleaseAll(phy_,
                      fault::RecordLedger::CloseReason::kReleasedAtEnd);
}

void CollisionAwareEngine::Shutdown() {
  if (!finished_) Finish();
}

void CollisionAwareEngine::ResetFrameMachinery() {
  cascade_queue_.clear();
  estimator_ = EmbeddedEstimator(
      config_.frame_size, omega_,
      config_.initial_estimate > 0.0
          ? config_.initial_estimate
          : static_cast<double>(config_.frame_size),
      config_.estimator_window);
  slot_in_frame_ = 0;
  frame_nc_ = 0;
  frame_had_probe_ = false;
  frame_p_effective_ = 0.0;
  frame_backlog_used_ = 1.0;
  probe_pending_ = false;
  consecutive_empties_ = 0;
  consecutive_collisions_ = 0;
  collision_boost_ = 1.0;
}

void CollisionAwareEngine::PowerCycle() {
  const std::size_t dropped = tracker_.ReleaseAll(
      phy_, fault::RecordLedger::CloseReason::kCrashDropped);
  ++metrics_.reader_crashes;
  // Volatile reader state is gone: the estimator reboots from its cold
  // bootstrap and the frame machinery restarts at a frame boundary. Tags
  // (and read_ / active_, i.e. which tags already fell silent) are
  // external to the reader and survive.
  ResetFrameMachinery();
  // The outage itself costs air time: the restart delay passes with no
  // slots scheduled.
  metrics_.elapsed_seconds +=
      static_cast<double>(fault_->config().crash.restart_delay_slots) *
      config_.timing.SlotSeconds();
  EmitFault(trace::FaultKind::kCrash, phy::kInvalidRecord, dropped);
}

bool CollisionAwareEngine::ArriveTag(const TagId& id) {
  const std::uint32_t tag = digest_to_index_.Find(id.Digest());
  if (tag == DigestIndex::kNone) return false;
  present_[tag] = true;
  if (!read_[tag]) Activate(tag);
  return true;
}

bool CollisionAwareEngine::DepartTag(const TagId& id) {
  const std::uint32_t tag = digest_to_index_.Find(id.Digest());
  if (tag == DigestIndex::kNone) return false;
  present_[tag] = false;
  // Falls silent immediately. Signals already captured in open collision
  // records stay there — a later resolution of one is a ghost read from
  // the service layer's point of view.
  Deactivate(tag);
  return true;
}

bool CollisionAwareEngine::BeginInventoryRound(bool refresh) {
  if (!finished_) Finish();
  finished_ = false;
  if (refresh) {
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(population_.size()); ++i) {
      if (!present_[i] || !read_[i]) continue;
      read_[i] = false;
      Activate(i);
    }
  }
  ResetFrameMachinery();
  return true;
}

double CollisionAwareEngine::EstimatedTotal() const {
  if (config_.knows_true_n) {
    return config_.assumed_total > 0.0
               ? config_.assumed_total
               : static_cast<double>(population_.size());
  }
  return estimator_.EstimatedTotal();
}

void CollisionAwareEngine::Deactivate(std::uint32_t tag) {
  const std::uint32_t pos = pos_in_active_[tag];
  if (pos == kNotActive) return;
  const std::uint32_t last = active_.back();
  active_[pos] = last;
  pos_in_active_[last] = pos;
  active_.pop_back();
  pos_in_active_[tag] = kNotActive;
}

void CollisionAwareEngine::Activate(std::uint32_t tag) {
  if (pos_in_active_[tag] != kNotActive) return;
  pos_in_active_[tag] = static_cast<std::uint32_t>(active_.size());
  active_.push_back(tag);
}

void CollisionAwareEngine::LearnId(const TagId& id, bool from_collision) {
  const std::uint32_t tag = digest_to_index_.Find(id.Digest());
  if (tag == DigestIndex::kNone) return;  // CRC-forged decode; discard
  if (read_[tag]) {
    if (from_collision) {
      ++metrics_.redundant_resolutions;
      return;
    }
    // A tag whose acknowledgement was lost re-transmitted its ID: the
    // reader discards the duplicate and acknowledges again (Section
    // IV-E).
    ++metrics_.duplicate_receptions;
    if (trace_) {
      trace::TraceEvent e;
      e.kind = trace::EventKind::kAck;
      e.slot = slot_index_;
      e.frame = metrics_.frames;
      e.ack = trace::AckKind::kReAck;
      e.id_digest = id.Digest();
      trace_.Emit(e);
    }
    if (fault_ && fault_->AckChannelEnabled()) {
      if (!fault_->AckLost()) Deactivate(tag);
    } else {
      // The unfaulted ack always lands, but the draw is kept so the RNG
      // stream (and therefore every committed golden trace) matches the
      // builds that had the flat ack_loss_prob knob this position fed.
      rng_.UniformDouble();
      Deactivate(tag);
    }
    return;
  }
  read_[tag] = true;
  ++metrics_.tags_read;
  learned_this_step_.push_back(id);
  if (from_collision) {
    ++metrics_.ids_from_collisions;
  } else {
    ++metrics_.ids_from_singletons;
  }
  if (trace_) {
    trace::TraceEvent e;
    e.kind = trace::EventKind::kAck;
    e.slot = slot_index_;
    e.frame = metrics_.frames;
    e.ack = from_collision ? (config_.ack_with_slot_index
                                  ? trace::AckKind::kSlotIndex
                                  : trace::AckKind::kFullId)
                           : trace::AckKind::kSingletonId;
    e.id_digest = id.Digest();
    trace_.Emit(e);
  }
  // The acknowledgement (positive ack for a singleton, slot-index
  // broadcast for a resolved record) reaches the tag unless the
  // Gilbert-Elliott ack channel (fault.ack_loss) corrupts it; until it
  // does, the tag keeps contending.
  if (fault_ && fault_->AckChannelEnabled()) {
    if (!fault_->AckLost()) Deactivate(tag);
  } else {
    // See the re-ack path above: the draw survives the knob it served.
    rng_.UniformDouble();
    Deactivate(tag);
  }
  cascade_queue_.emplace_back(tag, from_collision);
}

void CollisionAwareEngine::RegisterRecord(phy::RecordHandle handle) {
  const phy::RecordHandle victim = tracker_.Register(handle, participants_);
  if (trace_) {
    trace::TraceEvent e;
    e.kind = trace::EventKind::kRecordOpen;
    e.slot = slot_index_;
    e.frame = metrics_.frames;
    e.record = handle.index();
    trace_.Emit(e);
  }
  // Bounded store over capacity: the ledger picked a victim (possibly the
  // record just opened); its signal is released and its constituents fall
  // back to re-contention — they are still active, so nothing is lost
  // beyond the stored mixture.
  HandleEviction(victim);
  // Re-contention only happens when acknowledgements can be lost, i.e.
  // when the GE ack channel is live; otherwise no already-read tag is
  // ever on the air and the scan below would be dead work.
  if (!(fault_ && fault_->AckChannelEnabled())) return;
  // Already-identified tags can appear in fresh records while they wait
  // for a re-acknowledgement; the reader spots them by replaying the hash
  // rule over its known IDs and feeds their signals in immediately.
  for (std::uint32_t tag : participants_) {
    if (!read_[tag]) continue;
    if (auto res = tracker_.AddKnownParticipant(handle, tag, phy_)) {
      ++resolved_this_slot_;
      EmitResolve(*res, /*cascade=*/false);
      LearnId(res->id, true);
    }
  }
}

void CollisionAwareEngine::SelectTransmitters(
    const QuantizedProbability& prob) {
  participants_.clear();
  if (config_.hash_mode) {
    // Faithful rule: every unidentified tag evaluates H(ID|i) against the
    // advertised threshold.
    for (std::uint32_t tag : active_) {
      const std::uint64_t h = ReportHash(population_[tag].Digest(),
                                         slot_index_, prob.l_bits());
      if (prob.Admits(h)) participants_.push_back(tag);
    }
    return;
  }
  // Sampled mode: the transmitter count is Binomial(|active|, p) and the
  // transmitters a uniform subset — the same distribution the hash rule
  // induces, at O(k) instead of O(N) per slot.
  const auto n = static_cast<std::uint32_t>(active_.size());
  const std::uint64_t k64 = rng_.Binomial(n, prob.effective());
  const auto k = static_cast<std::uint32_t>(std::min<std::uint64_t>(k64, n));
  for (std::uint32_t j = 0; j < k; ++j) {
    const std::uint32_t i = j + rng_.UniformBelow(n - j);
    const std::uint32_t a = active_[j];
    const std::uint32_t b = active_[i];
    active_[j] = b;
    active_[i] = a;
    pos_in_active_[b] = j;
    pos_in_active_[a] = i;
    participants_.push_back(b);
  }
}

void CollisionAwareEngine::EmitResolve(
    const RecordTracker::Resolution& resolution, bool cascade) {
  if (!trace_) return;
  trace::TraceEvent e;
  e.kind = trace::EventKind::kRecordResolve;
  e.slot = slot_index_;
  e.frame = metrics_.frames;
  e.record = resolution.record.index();
  e.id_digest = resolution.id.Digest();
  e.cascade = cascade;
  trace_.Emit(e);
}

void CollisionAwareEngine::DrainCascade() {
  // Cascade resolution: every newly learned ID may unlock records, whose
  // resolved IDs may unlock further records (Fig. 1).
  while (!cascade_queue_.empty()) {
    const auto [tag, via_collision] = cascade_queue_.front();
    cascade_queue_.pop_front();
    tracker_.OnIdKnown(tag, phy_, &resolutions_);
    for (const auto& res : resolutions_) {
      ++resolved_this_slot_;
      EmitResolve(res, /*cascade=*/via_collision);
      LearnId(res.id, true);
    }
  }
  // Records whose retry budget ran out during the cascade were already
  // closed by the tracker; surface them in the metrics and the trace.
  DrainRetryAbandoned();
}

std::span<const TagId> CollisionAwareEngine::InjectKnownId(const TagId& id) {
  const std::uint32_t tag = digest_to_index_.Find(id.Digest());
  if (tag == DigestIndex::kNone) return {};  // outside this reader's range
  if (read_[tag]) return {};  // already learned locally
  read_[tag] = true;
  ++metrics_.ids_injected;
  Deactivate(tag);
  if (trace_) {
    trace::TraceEvent e;
    e.kind = trace::EventKind::kInject;
    e.slot = slot_index_;
    e.frame = metrics_.frames;
    e.id_digest = id.Digest();
    trace_.Emit(e);
  }
  const std::size_t before = learned_this_step_.size();
  cascade_queue_.emplace_back(tag, true);
  DrainCascade();
  return std::span<const TagId>(learned_this_step_).subspan(before);
}

void CollisionAwareEngine::Step() {
  if (finished_) return;
  learned_this_step_.clear();

  if (fault_ && fault_->ShouldCrash(slot_index_)) PowerCycle();

  if (slot_in_frame_ == 0) {
    // Frame (or, for SCAT, slot) advertisement: index + probability.
    ++metrics_.frames;
    metrics_.elapsed_seconds += config_.timing.AdvertSeconds();
    frame_nc_ = 0;
    frame_acked_at_start_ = AccountedTags();
    frame_had_probe_ = false;
    double backlog =
        config_.knows_true_n
            ? std::max<double>(
                  EstimatedTotal() -
                      static_cast<double>(AccountedTags()),
                  1.0)
            : estimator_.EstimatedBacklog(AccountedTags());
    backlog = std::max(backlog, collision_boost_);
    if (fault_ && fault_->AdvertChannelEnabled() &&
        fault_->AdvertCorrupted()) {
      // The burst channel garbled the frame advertisement: tags keep the
      // last probability they decoded (frame_p_effective_ is left stale;
      // its initial 0.0 makes pre-first-advert frames silent). The
      // estimator below is fed the stale p — consistent with what the
      // tags actually did. Probes are exempt: the p = 1 probe is a short
      // robust command (Section IV-A), so termination stays sound.
      EmitFault(trace::FaultKind::kAdvertCorrupt, phy::kInvalidRecord, 0);
    } else {
      frame_backlog_used_ = backlog;
      frame_p_effective_ =
          QuantizedProbability(std::min(1.0, omega_ / backlog),
                               config_.l_bits)
              .effective();
    }
    if (fault_ && fault_->ledger().TtlEnabled()) {
      expired_.clear();
      fault_->ledger().ExpireTtl(&expired_);
      for (phy::RecordHandle handle : expired_) {
        tracker_.Abandon(handle, phy_,
                         fault::RecordLedger::CloseReason::kAbandonedTtl);
        ++metrics_.records_abandoned;
        EmitFault(trace::FaultKind::kAbandonTtl, handle, 0);
      }
    }
  } else if (config_.per_slot_advert) {
    metrics_.elapsed_seconds += config_.timing.AdvertSeconds();
  }
  if (fault_) {
    fault_->ledger().Tick(slot_index_, metrics_.frames);
    if (fault_->BitrotChannelEnabled()) {
      const phy::RecordHandle rotted = fault_->SampleBitrot();
      if (rotted.valid()) {
        EmitFault(trace::FaultKind::kBitRot, rotted, 0);
      }
    }
  }

  const bool probe = probe_pending_;
  probe_pending_ = false;
  if (probe) frame_had_probe_ = true;
  const QuantizedProbability prob(probe ? 1.0 : frame_p_effective_,
                                  config_.l_bits);

  SelectTransmitters(prob);
  metrics_.tag_transmissions += participants_.size();
  // The engine advances one slot per Step(), so it feeds the phy's
  // batched interface batches of one, built in preallocated scratch.
  slot_scratch_[0] = slot_index_;
  offsets_scratch_ = {0, static_cast<std::uint32_t>(participants_.size())};
  phy_.ObserveBatch(
      phy::SlotBatch{slot_scratch_, participants_, offsets_scratch_},
      obs_scratch_);
  const phy::SlotObservation& obs = obs_scratch_[0];

  if (trace_) {
    // Outcome as the reader perceives it: a CRC-failed singleton is
    // indistinguishable from a collision.
    trace::TraceEvent e;
    e.kind = trace::EventKind::kSlot;
    e.slot = slot_index_;
    e.frame = metrics_.frames;
    e.responders = participants_.size();
    if (obs.type == phy::SlotType::kCollision ||
        (obs.type == phy::SlotType::kSingleton && !obs.singleton_id)) {
      e.outcome = trace::SlotOutcome::kCollision;
    } else if (obs.type == phy::SlotType::kSingleton) {
      e.outcome = trace::SlotOutcome::kSingleton;
    } else {
      e.outcome = trace::SlotOutcome::kEmpty;
    }
    trace_.Emit(e);
  }

  bool reader_sees_collision = false;
  resolved_this_slot_ = 0;

  switch (obs.type) {
    case phy::SlotType::kEmpty:
      ++metrics_.empty_slots;
      ++consecutive_empties_;
      break;
    case phy::SlotType::kSingleton:
      ++metrics_.singleton_slots;
      consecutive_empties_ = 0;
      if (obs.singleton_id) {
        LearnId(*obs.singleton_id, false);
      } else if (obs.record.valid()) {
        // CRC failed: to the reader this is indistinguishable from a
        // collision; the stored record is garbage but harmless.
        RegisterRecord(obs.record);
        reader_sees_collision = true;
      }
      break;
    case phy::SlotType::kCollision:
      ++metrics_.collision_slots;
      consecutive_empties_ = 0;
      RegisterRecord(obs.record);
      if (obs.singleton_id) {
        // Capture effect: the dominant constituent decoded straight out
        // of the mixture (SignalPhy with enable_capture). Registered
        // first so the cascade credits this record with the new known.
        LearnId(*obs.singleton_id, false);
      }
      reader_sees_collision = true;
      break;
  }

  DrainCascade();

  if (reader_sees_collision) {
    ++frame_nc_;
    if (++consecutive_collisions_ >= 12) {
      collision_boost_ = std::min(
          collision_boost_ * 2.0,
          static_cast<double>(std::max<std::size_t>(population_.size(), 2)));
      consecutive_collisions_ = 0;
    }
  } else {
    consecutive_collisions_ = 0;
    collision_boost_ = std::max(1.0, collision_boost_ / 2.0);
  }
  metrics_.elapsed_seconds +=
      config_.timing.SlotSeconds() +
      config_.timing.ResolvedAckSeconds(resolved_this_slot_,
                                        config_.ack_with_slot_index);

  ++slot_index_;
  ++slot_in_frame_;
  if (slot_in_frame_ >= config_.frame_size) {
    if (!config_.knows_true_n && !frame_had_probe_) {
      estimator_.Update(frame_nc_, frame_p_effective_,
                        frame_acked_at_start_);
      // A frame in which every slot collided says the backlog is far above
      // what the advertised probability assumed. Double the working floor
      // so the load ramps back toward omega instead of freezing — the
      // escape hatch for the estimator's small negative bias near the end
      // of the reading process (and for the initial bootstrap).
      if (frame_nc_ >= config_.frame_size && config_.frame_size > 1) {
        estimator_.RaiseBacklogFloor(AccountedTags(),
                                     std::max(2.0, 2.0 * frame_backlog_used_));
      }
    }
    if (trace_) {
      // Per-frame estimator snapshot, quantized so traces are bit-stable
      // across compilers.
      trace::TraceEvent e;
      e.kind = trace::EventKind::kFrame;
      e.slot = slot_index_;
      e.frame = metrics_.frames;
      e.n_c = frame_nc_;
      e.record = static_cast<std::uint32_t>(tracker_.open_records());
      e.estimate_q8 = trace::QuantizeEstimate(EstimatedTotal());
      e.elapsed_us = trace::QuantizeSeconds(metrics_.elapsed_seconds);
      trace_.Emit(e);
    }
    slot_in_frame_ = 0;
  }

  // Termination (Section IV-A): consecutive empties trigger a p = 1 probe;
  // an empty probe proves every tag has been acknowledged.
  if (probe) {
    if (obs.type == phy::SlotType::kEmpty) {
      Finish();
      return;
    }
    if (reader_sees_collision) {
      estimator_.RaiseBacklogFloor(AccountedTags(), 2.0);
    }
  }
  if (consecutive_empties_ >= config_.empty_probe_threshold) {
    probe_pending_ = true;
    consecutive_empties_ = 0;
  }
  if (config_.oracle_termination &&
      AccountedTags() == population_.size()) {
    Finish();
  }
}

void CollisionAwareEngine::SaveEngineState(anc::ser::Pieces& pieces) const {
  std::string* out = &pieces.bytes();
  PutPcg32(*out, rng_);
  ser::PutVarints(*out, active_);
  ser::PutVarints(*out, pos_in_active_);
  ser::PutVarints(*out, read_);
  ser::AppendVarints(*out, present_);
  tracker_.SaveState(pieces);
  estimator_.SaveState(out);
  ser::PutBool(*out, fault_ != nullptr);
  if (fault_) fault_->SaveState(out);
  ser::PutVarint(*out, cascade_queue_.size());
  for (const auto& [tag, from_collision] : cascade_queue_) {
    ser::PutVarint(*out, tag);
    ser::PutBool(*out, from_collision);
  }
  ser::PutVarint(*out, slot_index_);
  ser::PutVarint(*out, slot_in_frame_);
  ser::PutVarint(*out, frame_nc_);
  ser::PutVarint(*out, frame_acked_at_start_);
  ser::PutF64(*out, frame_p_effective_);
  ser::PutF64(*out, frame_backlog_used_);
  ser::PutBool(*out, frame_had_probe_);
  ser::PutVarint(*out, static_cast<std::uint64_t>(consecutive_empties_));
  ser::PutVarint(*out, static_cast<std::uint64_t>(consecutive_collisions_));
  ser::PutF64(*out, collision_boost_);
  ser::PutBool(*out, probe_pending_);
  ser::PutBool(*out, finished_);
  ser::PutVarint(*out, resolved_this_slot_);
  sim::PutRunMetrics(*out, metrics_);
}

void CollisionAwareEngine::SaveEngineState(std::string* out) const {
  ser::Pieces pieces;
  SaveEngineState(pieces);
  pieces.AppendTo(*out);
}

bool CollisionAwareEngine::RestoreEngineState(anc::ser::Reader& r) {
  if (!ReadPcg32(r, rng_)) return false;
  const std::size_t n_tags = pos_in_active_.size();
  const std::uint64_t n_active = r.Varint();
  if (n_active > n_tags) return false;
  active_.assign(static_cast<std::size_t>(n_active), 0);
  for (std::uint32_t& tag : active_) {
    const std::uint64_t v = r.Varint();
    if (v >= n_tags) return false;
    tag = static_cast<std::uint32_t>(v);
  }
  if (static_cast<std::size_t>(r.Varint()) != n_tags) {
    return false;  // universe size mismatch: wrong configuration
  }
  // pos_in_active_ inverts active_ (so active_ holds distinct tags) and
  // marks every other tag kNotActive: Deactivate/Activate index by both.
  std::size_t inactive = 0;
  for (std::uint32_t& pos : pos_in_active_) {
    const std::uint64_t v = r.Varint();
    if (v == kNotActive) {
      ++inactive;
    } else if (v >= active_.size()) {
      return false;
    }
    pos = static_cast<std::uint32_t>(v);
  }
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (pos_in_active_[active_[i]] != i) return false;
  }
  if (inactive + active_.size() != n_tags) return false;
  if (static_cast<std::size_t>(r.Varint()) != read_.size()) return false;
  for (std::size_t i = 0; i < read_.size(); ++i) read_[i] = r.Bool();
  for (std::size_t i = 0; i < present_.size(); ++i) present_[i] = r.Bool();
  if (!tracker_.RestoreState(r)) return false;
  if (!estimator_.RestoreState(r)) return false;
  const bool has_fault = r.Bool();
  if (has_fault != (fault_ != nullptr)) return false;  // config mismatch
  if (fault_ && !fault_->RestoreState(r)) return false;
  cascade_queue_.clear();
  const auto n_cascade = static_cast<std::size_t>(r.Varint());
  for (std::size_t i = 0; i < n_cascade && r.ok; ++i) {
    const std::uint64_t tag = r.Varint();
    const bool from_collision = r.Bool();
    if (tag >= n_tags) return false;
    cascade_queue_.emplace_back(static_cast<std::uint32_t>(tag),
                                from_collision);
  }
  slot_index_ = r.Varint();
  slot_in_frame_ = r.Varint();
  frame_nc_ = r.Varint();
  frame_acked_at_start_ = r.Varint();
  frame_p_effective_ = r.F64();
  frame_backlog_used_ = r.F64();
  frame_had_probe_ = r.Bool();
  consecutive_empties_ = static_cast<int>(r.Varint());
  consecutive_collisions_ = static_cast<int>(r.Varint());
  collision_boost_ = r.F64();
  probe_pending_ = r.Bool();
  finished_ = r.Bool();
  resolved_this_slot_ = r.Varint();
  if (!sim::ReadRunMetrics(r, metrics_)) return false;
  learned_this_step_.clear();
  return r.ok;
}

}  // namespace anc::core
