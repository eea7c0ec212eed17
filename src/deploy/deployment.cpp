#include "deploy/deployment.h"

#include <algorithm>
#include <string>
#include <utility>

namespace anc::deploy {
namespace {

// A deployment whose scheduler emits this many consecutive empty slots
// while readers still have work is considered stalled (can only happen to
// a pathological randomized schedule); the run is abandoned exactly like
// a livelock-capped single run.
constexpr std::uint64_t kStallSlotLimit = 100000;

}  // namespace

struct DeploymentProtocol::ReaderState {
  Reader position;
  std::vector<TagId> covered_ids;
  std::unique_ptr<sim::Protocol> protocol;
  std::uint64_t slot_cap = 0;
  std::uint64_t active_slots = 0;
  bool capped = false;
  bool dead = false;
  bool final_merged = false;
};

DeploymentProtocol::DeploymentProtocol(std::span<const TagId> tags,
                                       anc::Pcg32 rng,
                                       const DeploymentConfig& config,
                                       const sim::ProtocolFactory& factory)
    : tags_(tags), config_(config), digest_to_index_(IndexByDigest(tags)) {
  points_ = PlaceTags(config.floor, tags.size(), config.layout, rng);
  const std::vector<Reader> grid = GridReaders(
      config.floor, config.reader_rows, config.reader_cols, config.overlap);
  graph_ = BuildInterferenceGraph(grid);

  readers_.reserve(grid.size());
  covered_by_.assign(tags.size(), {});
  for (const Reader& position : grid) {
    auto state = std::make_unique<ReaderState>();
    state->position = position;
    for (std::uint32_t i : CoveredTags2D(position, points_)) {
      state->covered_ids.push_back(tags[i]);
      covered_by_[i].push_back(static_cast<std::uint32_t>(readers_.size()));
    }
    state->slot_cap =
        config.max_slots_per_tag * state->covered_ids.size() + 1000;
    state->protocol = factory(state->covered_ids, rng.Split());
    readers_.push_back(std::move(state));
  }
  scheduler_ = MakeScheduler(config.policy, graph_, rng.Split());
  if (config.reader_death.enabled) resched_rng_ = rng.Split();

  identified_.assign(tags.size(), false);
  pending_.assign(readers_.size(), false);
  name_ = "deploy-" + std::string(SchedulerPolicyName(config.policy));
  if (!readers_.empty()) {
    name_ += "(" + std::string(readers_[0]->protocol->name()) + ")";
  }
  finished_ = readers_.empty() || tags.empty();
}

DeploymentProtocol::~DeploymentProtocol() = default;

bool DeploymentProtocol::ReaderDone(const ReaderState& reader) const {
  return reader.dead || reader.capped || reader.protocol->Finished();
}

void DeploymentProtocol::KillReader(std::size_t victim) {
  ReaderState& reader = *readers_[victim];
  reader.dead = true;
  reader.protocol->Shutdown();
  if (trace_) {
    trace::TraceEvent e;
    e.kind = trace::EventKind::kFault;
    e.slot = global_slots_;
    e.fault = trace::FaultKind::kReaderDead;
    e.record = static_cast<std::uint32_t>(victim);
    trace_.Emit(e);
  }
  // The dead reader stops transmitting, so its interference edges vanish;
  // rebuild the TDMA plan over the residual graph so its slot share is
  // redistributed across the survivors instead of cycling empty.
  InterferenceGraph residual = graph_;
  for (std::uint32_t nb : residual.adjacency[victim]) {
    auto& back = residual.adjacency[nb];
    back.erase(std::remove(back.begin(), back.end(),
                           static_cast<std::uint32_t>(victim)),
               back.end());
  }
  residual.adjacency[victim].clear();
  scheduler_ = MakeScheduler(config_.policy, residual, resched_rng_.Split());
  if (trace_) {
    trace::TraceEvent e;
    e.kind = trace::EventKind::kFault;
    e.slot = global_slots_;
    e.fault = trace::FaultKind::kReschedule;
    e.record = static_cast<std::uint32_t>(victim);
    e.n_c = readers_.size() - 1;
    trace_.Emit(e);
  }
}

bool DeploymentProtocol::SupportsChurn() const {
  if (readers_.empty()) return false;
  for (const auto& reader : readers_) {
    if (!reader->protocol->SupportsChurn()) return false;
  }
  return true;
}

bool DeploymentProtocol::ArriveTag(const TagId& id) {
  const std::uint32_t tag = digest_to_index_.Find(id.Digest());
  if (tag == DigestIndex::kNone) return false;
  bool accepted = false;
  for (std::uint32_t r : covered_by_[tag]) {
    ReaderState& reader = *readers_[r];
    if (reader.dead) continue;
    if (reader.protocol->ArriveTag(id)) {
      accepted = true;
      // A reader that already declared its inventory complete resumes for
      // the newcomer instead of waiting for a deployment-wide re-arm.
      if (reader.protocol->Finished()) {
        reader.protocol->BeginInventoryRound(false);
        reader.final_merged = false;
      }
    }
  }
  if (accepted) finished_ = false;
  return accepted;
}

bool DeploymentProtocol::DepartTag(const TagId& id) {
  const std::uint32_t tag = digest_to_index_.Find(id.Digest());
  if (tag == DigestIndex::kNone) return false;
  bool accepted = false;
  for (std::uint32_t r : covered_by_[tag]) {
    ReaderState& reader = *readers_[r];
    if (reader.dead) continue;
    accepted |= reader.protocol->DepartTag(id);
  }
  return accepted;
}

bool DeploymentProtocol::BeginInventoryRound(bool refresh) {
  if (readers_.empty()) return false;
  bool any = false;
  for (auto& reader : readers_) {
    if (reader->dead) continue;
    if (reader->protocol->BeginInventoryRound(refresh)) {
      reader->final_merged = false;
      any = true;
    }
  }
  if (any) finished_ = false;
  return any;
}

void DeploymentProtocol::AttachTrace(const trace::TraceContext& context) {
  trace_ = context;
  for (std::size_t r = 0; r < readers_.size(); ++r) {
    readers_[r]->protocol->AttachTrace(
        context.WithReader(static_cast<std::uint32_t>(r + 1)));
  }
}

void DeploymentProtocol::Broadcast(std::uint32_t reader, const TagId& id) {
  broadcast_queue_.emplace_back(reader, id);
}

void DeploymentProtocol::Step() {
  if (finished_) return;
  learned_this_step_.clear();

  if (config_.reader_death.enabled &&
      config_.reader_death.reader < readers_.size() &&
      !readers_[config_.reader_death.reader]->dead &&
      global_slots_ >= config_.reader_death.at_global_slot) {
    KillReader(config_.reader_death.reader);
  }

  bool any_pending = false;
  for (std::size_t r = 0; r < readers_.size(); ++r) {
    pending_[r] = !ReaderDone(*readers_[r]);
    any_pending |= pending_[r];
  }
  if (!any_pending) {
    finished_ = true;
    return;
  }

  const std::vector<std::uint32_t> active = scheduler_->NextSlot(pending_);
  ++global_slots_;

  if (trace_) {
    // The deployment's own timeline entry for this global TDMA slot; the
    // activated readers' slot events follow with their reader ids.
    trace::TraceEvent e;
    e.kind = trace::EventKind::kTdmaSlot;
    e.slot = global_slots_ - 1;
    e.responders = active.size();
    trace_.Emit(e);
  }

  broadcast_queue_.clear();
  double slot_seconds = 0.0;
  for (std::uint32_t r : active) {
    ReaderState& reader = *readers_[r];
    if (!pending_[r]) continue;  // defensive: schedulers only emit pending
    const double before = reader.protocol->metrics().elapsed_seconds;
    reader.protocol->Step();
    slot_seconds = std::max(
        slot_seconds, reader.protocol->metrics().elapsed_seconds - before);
    ++reader.active_slots;
    ++busy_reader_slots_;
    for (const TagId& id : reader.protocol->LearnedThisStep()) {
      MarkIdentified(id);
      learned_this_step_.push_back(id);
      if (config_.share_records) Broadcast(r, id);
    }
    if (reader.protocol->metrics().TotalSlots() >= reader.slot_cap) {
      reader.capped = true;
    }
  }

  // Propagate resolved IDs across overlapping readers. An injected ID can
  // close a neighbour's record, whose resolved ID is broadcast in turn —
  // the paper's Fig. 1 cascade, continued across reader boundaries.
  for (std::size_t i = 0; i < broadcast_queue_.size(); ++i) {
    const auto [source, id] = broadcast_queue_[i];
    for (std::uint32_t nb : graph_.adjacency[source]) {
      const auto resolved = readers_[nb]->protocol->InjectKnownId(id);
      if (resolved.empty()) continue;
      shared_resolutions_ += resolved.size();
      // Copy before the next InjectKnownId invalidates the span.
      const std::vector<TagId> copy(resolved.begin(), resolved.end());
      for (const TagId& rid : copy) {
        MarkIdentified(rid);
        learned_this_step_.push_back(rid);
        Broadcast(nb, rid);
      }
    }
  }

  // The global TDMA clock: every reader shares the slot grid, so the slot
  // costs the longest active reader's air time; a slot no reader used
  // still occupies the grid (charged at the trailing slot length).
  if (slot_seconds > 0.0) {
    last_slot_seconds_ = slot_seconds;
  } else {
    slot_seconds = last_slot_seconds_;
    if (++stall_slots_ >= kStallSlotLimit) {
      for (auto& reader : readers_) {
        if (!ReaderDone(*reader)) reader->capped = true;
      }
    }
  }
  if (!active.empty()) stall_slots_ = 0;
  makespan_seconds_ += slot_seconds;

  // Some baseline protocols don't expose LearnedThisStep; when a reader
  // finishes having read as many tags as it covers, its whole covered set
  // joins the merged inventory.
  for (std::uint32_t r : active) {
    ReaderState& reader = *readers_[r];
    if (!ReaderDone(reader) || reader.final_merged) continue;
    reader.final_merged = true;
    if (reader.protocol->metrics().tags_read == reader.covered_ids.size()) {
      for (const TagId& id : reader.covered_ids) MarkIdentified(id);
    }
  }
}

std::size_t DeploymentProtocol::OpenPhyRecords() const {
  std::size_t open = 0;
  for (const auto& reader : readers_) {
    open += reader->protocol->OpenPhyRecords();
  }
  return open;
}

void DeploymentProtocol::Shutdown() {
  for (const auto& reader : readers_) {
    reader->protocol->Shutdown();
  }
}

void DeploymentProtocol::MarkIdentified(const TagId& id) {
  const std::uint32_t tag = digest_to_index_.Find(id.Digest());
  if (tag == DigestIndex::kNone) return;
  if (!identified_[tag]) {
    identified_[tag] = true;
    ++unique_ids_;
  }
}

const sim::RunMetrics& DeploymentProtocol::metrics() const {
  merged_ = {};
  std::uint64_t read_sum = 0;
  for (const auto& reader : readers_) {
    const sim::RunMetrics& m = reader->protocol->metrics();
    merged_.empty_slots += m.empty_slots;
    merged_.singleton_slots += m.singleton_slots;
    merged_.collision_slots += m.collision_slots;
    merged_.ids_from_singletons += m.ids_from_singletons;
    merged_.ids_from_collisions += m.ids_from_collisions;
    merged_.redundant_resolutions += m.redundant_resolutions;
    merged_.unresolved_records += m.unresolved_records;
    merged_.ids_injected += m.ids_injected;
    merged_.tag_transmissions += m.tag_transmissions;
    merged_.records_evicted += m.records_evicted;
    merged_.records_abandoned += m.records_abandoned;
    merged_.reader_crashes += m.reader_crashes;
    read_sum += m.tags_read;
  }
  merged_.frames = global_slots_;  // deployment view: global TDMA slots
  merged_.elapsed_seconds = makespan_seconds_;
  merged_.tags_read = unique_ids_;
  merged_.duplicate_receptions =
      read_sum > unique_ids_ ? read_sum - unique_ids_ : 0;
  return merged_;
}

DeploymentResult DeploymentProtocol::Result() const {
  DeploymentResult result;
  result.n_tags = tags_.size();
  result.n_readers = readers_.size();
  result.unique_ids = unique_ids_;
  result.global_slots = global_slots_;
  result.makespan_seconds = makespan_seconds_;
  result.shared_resolutions = shared_resolutions_;
  result.complete = unique_ids_ == tags_.size();
  if (global_slots_ > 0 && !readers_.empty()) {
    result.slot_efficiency =
        static_cast<double>(busy_reader_slots_) /
        (static_cast<double>(global_slots_) *
         static_cast<double>(readers_.size()));
  }
  std::uint64_t read_sum = 0;
  for (const auto& reader : readers_) {
    ReaderReport report;
    report.position = reader->position;
    report.covered_tags = reader->covered_ids.size();
    report.active_slots = reader->active_slots;
    report.duty_cycle =
        global_slots_ > 0 ? static_cast<double>(reader->active_slots) /
                                static_cast<double>(global_slots_)
                          : 0.0;
    report.capped = reader->capped;
    report.dead = reader->dead;
    if (reader->dead) ++result.dead_readers;
    report.metrics = reader->protocol->metrics();
    result.ids_from_collisions += report.metrics.ids_from_collisions;
    result.injected_ids += report.metrics.ids_injected;
    read_sum += report.metrics.tags_read;
    result.per_reader.push_back(std::move(report));
  }
  result.duplicate_reads =
      read_sum > unique_ids_ ? read_sum - unique_ids_ : 0;
  return result;
}

bool DeploymentProtocol::SupportsCheckpoint() const {
  if (readers_.empty()) return false;
  for (const auto& reader : readers_) {
    if (!reader->protocol->SupportsCheckpoint()) return false;
  }
  return true;
}

void DeploymentProtocol::SaveState(std::string* out) const {
  ser::PutVarint(*out, readers_.size());
  std::string blob;
  for (const auto& reader : readers_) {
    blob.clear();
    reader->protocol->SaveState(&blob);
    ser::PutBytes(*out, blob);
    ser::PutVarint(*out, reader->active_slots);
    ser::PutBool(*out, reader->capped);
    ser::PutBool(*out, reader->dead);
    ser::PutBool(*out, reader->final_merged);
  }
  blob.clear();
  scheduler_->SaveState(&blob);
  ser::PutBytes(*out, blob);
  PutPcg32(*out, resched_rng_);
  ser::PutVarint(*out, identified_.size());
  for (bool b : identified_) ser::PutBool(*out, b);
  ser::PutVarint(*out, unique_ids_);
  ser::PutVarint(*out, global_slots_);
  ser::PutVarint(*out, busy_reader_slots_);
  ser::PutVarint(*out, shared_resolutions_);
  ser::PutF64(*out, makespan_seconds_);
  ser::PutF64(*out, last_slot_seconds_);
  ser::PutVarint(*out, stall_slots_);
  ser::PutBool(*out, finished_);
}

bool DeploymentProtocol::RestoreState(std::string_view bytes) {
  ser::Reader r{bytes};
  if (static_cast<std::size_t>(r.Varint()) != readers_.size()) return false;
  bool any_dead = false;
  for (auto& reader : readers_) {
    const std::string_view blob = r.Bytes();
    if (!r.ok || !reader->protocol->RestoreState(blob)) return false;
    reader->active_slots = r.Varint();
    reader->capped = r.Bool();
    reader->dead = r.Bool();
    reader->final_merged = r.Bool();
    any_dead |= reader->dead;
  }
  if (any_dead) {
    // Rebuild the post-kill TDMA plan over the residual graph (dead
    // readers interfere with nobody); the scheduler blob below then
    // overwrites every mutable cursor, including Colorwave's RNG stream,
    // so the construction-time rng copy passed here never surfaces.
    InterferenceGraph residual = graph_;
    for (std::size_t victim = 0; victim < readers_.size(); ++victim) {
      if (!readers_[victim]->dead) continue;
      for (std::uint32_t nb : residual.adjacency[victim]) {
        auto& back = residual.adjacency[nb];
        back.erase(std::remove(back.begin(), back.end(),
                               static_cast<std::uint32_t>(victim)),
                   back.end());
      }
      residual.adjacency[victim].clear();
    }
    scheduler_ = MakeScheduler(config_.policy, residual, resched_rng_);
  }
  ser::Reader sched_r{r.Bytes()};
  if (!r.ok || !scheduler_->RestoreState(sched_r) || !sched_r.AtEnd()) {
    return false;
  }
  if (!ReadPcg32(r, resched_rng_)) return false;
  if (static_cast<std::size_t>(r.Varint()) != identified_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < identified_.size(); ++i) {
    identified_[i] = r.Bool();
  }
  unique_ids_ = static_cast<std::size_t>(r.Varint());
  global_slots_ = r.Varint();
  busy_reader_slots_ = r.Varint();
  shared_resolutions_ = r.Varint();
  makespan_seconds_ = r.F64();
  last_slot_seconds_ = r.F64();
  stall_slots_ = r.Varint();
  finished_ = r.Bool();
  learned_this_step_.clear();
  return r.ok && r.AtEnd();
}

DeploymentResult RunDeployment(std::span<const TagId> tags,
                               const DeploymentConfig& config,
                               const sim::ProtocolFactory& factory,
                               std::uint64_t seed) {
  DeploymentProtocol deployment(tags, sim::RunRng(0, seed), config, factory);
  while (!deployment.Finished()) deployment.Step();
  return deployment.Result();
}

sim::ProtocolFactory MakeDeploymentFactory(DeploymentConfig config,
                                           sim::ProtocolFactory factory) {
  return [config, factory = std::move(factory)](
             std::span<const TagId> population, anc::Pcg32 rng) {
    return std::make_unique<DeploymentProtocol>(population, rng, config,
                                                factory);
  };
}

}  // namespace anc::deploy
