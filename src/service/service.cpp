#include "service/service.h"

#include <utility>

#include "trace/event.h"

namespace anc::service {
namespace {

trace::TraceEvent ChurnEvt(trace::EventKind kind, std::uint64_t slot,
                           std::uint64_t round) {
  trace::TraceEvent e;
  e.kind = kind;
  e.slot = slot;
  e.frame = round;
  return e;
}

}  // namespace

bool LookupServiceProfile(std::string_view label, ServiceConfig* out) {
  ServiceConfig c;
  if (label == "smoke") {
    // Small and fast: CI golden traces and unit tests.
    c.churn.kind = ChurnKind::kPoisson;
    c.churn.arrival_rate = 0.02;
    c.churn.mean_dwell_slots = 1200;
    c.churn.min_dwell_slots = 400;
    c.churn_stop_slot = 2500;
    c.max_slots = 4000;
    c.epoch_slots = 500;
    c.report_horizon_slots = 1500;
  } else if (label == "soak") {
    // The headline steady-state soak: >= 1e5-slot budget.
    c.churn.kind = ChurnKind::kPoisson;
    c.churn.arrival_rate = 0.01;
    c.churn.mean_dwell_slots = 6000;
    c.churn.min_dwell_slots = 1500;
    c.churn_stop_slot = 90000;
    c.max_slots = 100000;
    c.epoch_slots = 2000;
    c.report_horizon_slots = 6000;
  } else if (label == "batch") {
    // Dock-door deliveries: 40-tag pallets every 8000 slots.
    c.churn.kind = ChurnKind::kBatch;
    c.churn.batch_size = 40;
    c.churn.batch_interval = 8000;
    c.churn.mean_dwell_slots = 15000;
    c.churn.min_dwell_slots = 2000;
    c.churn_stop_slot = 90000;
    c.max_slots = 100000;
    c.epoch_slots = 2000;
    c.report_horizon_slots = 6000;
  } else if (label == "flow") {
    // Conveyor belt: one tag every 100 slots, fixed 8000-slot transit.
    c.churn.kind = ChurnKind::kConveyor;
    c.churn.conveyor_interval = 100;
    c.churn.mean_dwell_slots = 8000;
    c.churn.fixed_dwell = true;
    c.churn_stop_slot = 90000;
    c.max_slots = 100000;
    c.epoch_slots = 2000;
    c.report_horizon_slots = 6000;
  } else {
    return false;
  }
  c.label = std::string(label);
  if (out != nullptr) *out = std::move(c);
  return true;
}

std::string ServiceProfileList() { return "smoke, soak, batch, flow"; }

InventoryService::InventoryService(const ServiceConfig& config,
                                   sim::Protocol& protocol,
                                   std::span<const TagId> universe,
                                   std::size_t n_initial,
                                   const ChurnSchedule& schedule,
                                   trace::TraceContext trace,
                                   store::EpochSnapshotLog* snapshot_log)
    : config_(config),
      protocol_(protocol),
      universe_(universe),
      n_initial_(n_initial < universe.size() ? n_initial : universe.size()),
      events_(schedule.events),
      trace_(trace),
      snapshot_log_(snapshot_log),
      digest_to_index_(IndexByDigest(universe)) {
  report_.suppressed_arrivals = schedule.suppressed_arrivals;
  states_.resize(universe_.size());
}

void InventoryService::ApplyChurnDue(std::uint64_t slot) {
  while (next_event_ < events_.size() && events_[next_event_].slot <= slot) {
    const ChurnEvent& e = events_[next_event_++];
    TagState& st = states_[e.tag];
    if (e.arrive) {
      if (st.ever_present) continue;  // schedule never re-arrives a tag
      protocol_.ArriveTag(universe_[e.tag]);
      st.ever_present = true;
      st.present = true;
      st.arrive_slot = slot;
      ++live_;
      ++undetected_present_;
      ++report_.arrived;
      if (trace_) {
        auto ev = ChurnEvt(trace::EventKind::kArrive, slot, report_.rounds);
        ev.id_digest = universe_[e.tag].Digest();
        ev.n_c = live_;
        trace_.Emit(ev);
      }
    } else {
      if (!st.present) continue;
      protocol_.DepartTag(universe_[e.tag]);
      st.present = false;
      --live_;
      ++report_.departed;
      const bool missed = !st.detected;
      if (missed) {
        ++report_.missed_departed;
        --undetected_present_;
      }
      if (trace_) {
        auto ev = ChurnEvt(trace::EventKind::kDepart, slot, report_.rounds);
        ev.id_digest = universe_[e.tag].Digest();
        ev.n_c = live_;
        ev.estimate_q8 = missed ? 1 : 0;
        trace_.Emit(ev);
      }
    }
  }
}

void InventoryService::OnDetections(std::uint64_t slot) {
  for (const TagId& id : protocol_.LearnedThisStep()) {
    const std::uint32_t tag = digest_to_index_.Find(id.Digest());
    if (tag == DigestIndex::kNone) continue;
    TagState& st = states_[tag];
    if (!st.ever_present) continue;  // setup-departed universe remainder
    if (!st.present) {
      // Post-departure resolution (a stored collision record finally
      // yielded the ID): the tag is gone, so this is a ghost read, not a
      // detection — it stays in the missed ledger.
      if (!st.detected && !st.ghost_detected) {
        st.ghost_detected = true;
        ++report_.ghost_detections;
        if (trace_) {
          auto ev = ChurnEvt(trace::EventKind::kDetect, slot, report_.rounds);
          ev.id_digest = id.Digest();
          ev.n_c = slot - st.arrive_slot;
          ev.cascade = true;
          trace_.Emit(ev);
        }
      }
      continue;
    }
    ++report_.detections_total;
    st.last_seen = slot;
    if (!st.detected) {
      st.detected = true;
      ++report_.detected;
      --undetected_present_;
      const auto latency = static_cast<double>(slot - st.arrive_slot);
      detect_p50_.Add(latency);
      detect_p99_.Add(latency);
      if (trace_) {
        auto ev = ChurnEvt(trace::EventKind::kDetect, slot, report_.rounds);
        ev.id_digest = id.Digest();
        ev.n_c = slot - st.arrive_slot;
        trace_.Emit(ev);
      }
    }
  }
}

void InventoryService::Snapshot(std::uint64_t slot) {
  ++report_.epochs;
  last_snapshot_slot_ = slot;
  std::uint64_t detected_present = 0;
  std::uint32_t ghosts = 0;
  for (const TagState& st : states_) {
    if (!st.ever_present || !st.detected) continue;
    if (st.present) {
      ++detected_present;
      staleness_p99_.Add(static_cast<double>(slot - st.last_seen));
    } else if (slot - st.last_seen <= config_.report_horizon_slots) {
      ++ghosts;
    }
  }
  const std::uint64_t reported = detected_present + ghosts;
  epoch_ghost_rate_.Add(
      reported > 0 ? static_cast<double>(ghosts) / static_cast<double>(reported)
                   : 0.0);
  epoch_population_.Add(static_cast<double>(live_));
  if (snapshot_log_ != nullptr) {
    store::EpochSnapshot snap;
    snap.epoch = report_.epochs;
    snap.population = live_;
    snap.detected = detected_present;
    snap.ghosts = ghosts;
    snap.staleness_q8 = trace::QuantizeEstimate(staleness_p99_.value());
    snap.elapsed_us =
        trace::QuantizeSeconds(protocol_.metrics().elapsed_seconds);
    snapshot_log_->Publish(snap);
  }
  if (trace_) {
    auto ev = ChurnEvt(trace::EventKind::kEpoch, slot, report_.epochs);
    ev.n_c = live_;
    ev.record = detected_present;
    ev.responders = ghosts;
    ev.estimate_q8 = trace::QuantizeEstimate(staleness_p99_.value());
    ev.elapsed_us = trace::QuantizeSeconds(protocol_.metrics().elapsed_seconds);
    trace_.Emit(ev);
  }
}

bool InventoryService::Drained(std::uint64_t slot) const {
  return slot >= config_.churn_stop_slot && next_event_ >= events_.size() &&
         undetected_present_ == 0;
}

SloReport InventoryService::Run(const RunHooks& hooks) {
  report_.churn_supported = protocol_.SupportsChurn();

  if (!resumed_) {
    // Setup: the universe beyond the initial population starts absent (no
    // trace events — these tags were never in the field), the initial
    // population arrives at slot 0. A resumed run skips all of this: the
    // restored protocol blob already carries the presence flags and the
    // arrive events are already in the trace.
    if (report_.churn_supported) {
      for (std::size_t i = n_initial_; i < universe_.size(); ++i) {
        protocol_.DepartTag(universe_[i]);
      }
    }
    for (std::size_t i = 0; i < n_initial_; ++i) {
      TagState& st = states_[i];
      st.ever_present = true;
      st.present = true;
      ++live_;
      ++undetected_present_;
      ++report_.arrived;
      if (trace_) {
        auto ev = ChurnEvt(trace::EventKind::kArrive, 0, 0);
        ev.id_digest = universe_[i].Digest();
        ev.n_c = live_;
        trace_.Emit(ev);
      }
    }
  }

  std::uint64_t slot = resumed_ ? resume_slot_ : 0;
  while (slot < config_.max_slots) {
    if (hooks.abort_before_slot > 0 && slot >= hooks.abort_before_slot) {
      // Crash emulation: walk away mid-run — no drain, no finalization,
      // no Shutdown — leaving exactly the state a SIGKILL would.
      if (hooks.aborted != nullptr) *hooks.aborted = true;
      return report_;
    }
    if (report_.churn_supported) ApplyChurnDue(slot);
    if (Drained(slot)) break;
    if (protocol_.Finished()) {
      if (!protocol_.BeginInventoryRound(config_.reinventory)) break;
      ++report_.rounds;
    }
    protocol_.Step();
    OnDetections(slot);
    ++slot;
    if (config_.epoch_slots > 0 && slot % config_.epoch_slots == 0) {
      Snapshot(slot);
      if (hooks.on_epoch) hooks.on_epoch(slot);
      if (hooks.checkpoint_every_epochs > 0 && hooks.on_checkpoint &&
          report_.epochs % hooks.checkpoint_every_epochs == 0) {
        hooks.on_checkpoint(slot);
      }
    }
  }
  if (last_snapshot_slot_ != slot) Snapshot(slot);

  report_.slots = slot;
  report_.undetected_at_end = undetected_present_;
  report_.detect_p50 = detect_p50_.value();
  report_.detect_p99 = detect_p99_.value();
  report_.staleness_p99 = staleness_p99_.value();
  report_.mean_population = epoch_population_.mean();
  report_.ghost_rate = epoch_ghost_rate_.mean();
  report_.missed_rate =
      report_.arrived > 0 ? static_cast<double>(report_.missed_departed) /
                                static_cast<double>(report_.arrived)
                          : 0.0;

  protocol_.Shutdown();
  report_.open_phy_records_end = protocol_.OpenPhyRecords();
  report_.metrics = protocol_.metrics();
  return report_;
}

void InventoryService::SaveState(std::string* out, std::uint64_t slot) const {
  ser::PutVarint(*out, slot);
  ser::PutVarint(*out, states_.size());
  for (const TagState& st : states_) {
    ser::PutBool(*out, st.ever_present);
    ser::PutBool(*out, st.present);
    ser::PutBool(*out, st.detected);
    ser::PutBool(*out, st.ghost_detected);
    ser::PutVarint(*out, st.arrive_slot);
    ser::PutVarint(*out, st.last_seen);
  }
  ser::PutVarint(*out, next_event_);
  ser::PutVarint(*out, live_);
  ser::PutVarint(*out, undetected_present_);
  ser::PutVarint(*out, last_snapshot_slot_);
  PutP2Quantile(*out, detect_p50_);
  PutP2Quantile(*out, detect_p99_);
  PutP2Quantile(*out, staleness_p99_);
  PutRunningStats(*out, epoch_population_);
  PutRunningStats(*out, epoch_ghost_rate_);
  PutSloReport(*out, report_);
}

bool InventoryService::RestoreState(ser::Reader& r, std::uint64_t* slot) {
  const std::uint64_t saved_slot = r.Varint();
  if (static_cast<std::size_t>(r.Varint()) != states_.size()) {
    return false;  // universe mismatch: wrong run for this checkpoint
  }
  for (TagState& st : states_) {
    st.ever_present = r.Bool();
    st.present = r.Bool();
    st.detected = r.Bool();
    st.ghost_detected = r.Bool();
    st.arrive_slot = r.Varint();
    st.last_seen = r.Varint();
  }
  next_event_ = static_cast<std::size_t>(r.Varint());
  live_ = r.Varint();
  undetected_present_ = r.Varint();
  last_snapshot_slot_ = r.Varint();
  if (!ReadP2Quantile(r, detect_p50_)) return false;
  if (!ReadP2Quantile(r, detect_p99_)) return false;
  if (!ReadP2Quantile(r, staleness_p99_)) return false;
  if (!ReadRunningStats(r, epoch_population_)) return false;
  if (!ReadRunningStats(r, epoch_ghost_rate_)) return false;
  if (!ReadSloReport(r, report_)) return false;
  if (!r.ok || next_event_ > events_.size()) return false;
  resumed_ = true;
  resume_slot_ = saved_slot;
  if (slot != nullptr) *slot = saved_slot;
  return true;
}

void SoakAggregate::Merge(const SoakAggregate& other) {
  detect_p50.Merge(other.detect_p50);
  detect_p99.Merge(other.detect_p99);
  staleness_p99.Merge(other.staleness_p99);
  missed_rate.Merge(other.missed_rate);
  ghost_rate.Merge(other.ghost_rate);
  mean_population.Merge(other.mean_population);
  arrived.Merge(other.arrived);
  departed.Merge(other.departed);
  detected.Merge(other.detected);
  slots.Merge(other.slots);
  rounds.Merge(other.rounds);
  elapsed_seconds.Merge(other.elapsed_seconds);
  missed_total += other.missed_total;
  ghost_detections_total += other.ghost_detections_total;
  suppressed_arrivals_total += other.suppressed_arrivals_total;
  conservation_failures += other.conservation_failures;
  open_records_after_shutdown += other.open_records_after_shutdown;
  churn_unsupported_runs += other.churn_unsupported_runs;
}

void AccumulateSoak(SoakAggregate& agg, const SloReport& r) {
  agg.detect_p50.Add(r.detect_p50);
  agg.detect_p99.Add(r.detect_p99);
  agg.staleness_p99.Add(r.staleness_p99);
  agg.missed_rate.Add(r.missed_rate);
  agg.ghost_rate.Add(r.ghost_rate);
  agg.mean_population.Add(r.mean_population);
  agg.arrived.Add(static_cast<double>(r.arrived));
  agg.departed.Add(static_cast<double>(r.departed));
  agg.detected.Add(static_cast<double>(r.detected));
  agg.slots.Add(static_cast<double>(r.slots));
  agg.rounds.Add(static_cast<double>(r.rounds));
  agg.elapsed_seconds.Add(r.metrics.elapsed_seconds);
  agg.missed_total += r.missed_departed;
  agg.ghost_detections_total += r.ghost_detections;
  agg.suppressed_arrivals_total += r.suppressed_arrivals;
  if (!r.ConservationOk()) ++agg.conservation_failures;
  agg.open_records_after_shutdown += r.open_phy_records_end;
  if (!r.churn_supported) ++agg.churn_unsupported_runs;
}

}  // namespace anc::service
