#include "protocols/mpr.h"

#include <algorithm>
#include <cmath>

namespace anc::protocols {

double OptimalMprLoad(int capacity) {
  if (capacity <= 1) return 1.0;
  // S_M(G) = e^{-G} sum_{k=1..M} k G^k / k! is unimodal in G; ternary
  // search pins its argmax well past double precision.
  const auto s = [capacity](double g) {
    double term = g;  // k=1: 1 * G^1 / 1!
    double total = term;
    for (int k = 2; k <= capacity; ++k) {
      term *= g / k;       // G^k / k!
      total += k * term;   // the k-weighted series
    }
    return std::exp(-g) * total;
  };
  double lo = 1e-6, hi = 3.0 * capacity;
  for (int i = 0; i < 200; ++i) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (s(m1) < s(m2)) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  return 0.5 * (lo + hi);
}

Mpr::Mpr(std::span<const TagId> population, anc::Pcg32 rng,
         phy::TimingModel timing, MprConfig config)
    : BaselineBase("MPR", population, rng, timing),
      config_(config),
      load_(config.target_load > 0.0 ? config.target_load
                                     : OptimalMprLoad(config.capacity)),
      read_(population.size(), false) {
  name_storage_ = "MPR-" + std::to_string(config_.capacity);
  name_ = name_storage_;
  unread_.resize(population.size());
  for (std::uint32_t i = 0; i < population.size(); ++i) unread_[i] = i;
  StartFrame();
}

void Mpr::StartFrame() {
  ++metrics_.frames;
  const auto backlog = static_cast<double>(unread_.size());
  // Pudasaini et al.'s rule: L* = backlog / G*_M.
  frame_size_ = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::llround(backlog / load_)),
      config_.min_frame_size, config_.max_frame_size);

  slot_cursor_ = 0;
  frame_transmissions_ = 0;
  slot_tags_.Reset(frame_size_);
  for (std::uint32_t tag : unread_) {
    slot_tags_.Push(
        rng_.UniformBelow(static_cast<std::uint32_t>(frame_size_)), tag);
    ++frame_transmissions_;
    ++metrics_.tag_transmissions;
  }
  slot_tags_.Build();
}

void Mpr::Step() {
  if (finished_) return;

  const std::span<const std::uint32_t> tags = slot_tags_[slot_cursor_];
  const std::size_t occupancy = tags.size();
  if (occupancy == 0) {
    ChargeEmptySlot();
  } else if (occupancy == 1) {
    ChargeSingletonSlot();
    read_[tags[0]] = true;
    if (trace_) {
      trace::TraceEvent e;
      e.kind = trace::EventKind::kAck;
      e.slot = slot_index_ - 1;
      e.frame = metrics_.frames;
      e.ack = trace::AckKind::kSingletonId;
      e.id_digest = population_[tags[0]].Digest();
      trace_.Emit(e);
    }
  } else if (occupancy <= static_cast<std::size_t>(config_.capacity)) {
    // Within the front-end's MPR capacity: the "collision" decodes whole.
    ++metrics_.collision_slots;
    metrics_.elapsed_seconds += timing_.SlotSeconds();
    EmitSlot(trace::SlotOutcome::kCollision, occupancy);
    for (std::uint32_t tag : tags) {
      read_[tag] = true;
      ++metrics_.tags_read;
      ++metrics_.ids_from_collisions;
      if (trace_) {
        trace::TraceEvent e;
        e.kind = trace::EventKind::kAck;
        e.slot = slot_index_ - 1;
        e.frame = metrics_.frames;
        e.ack = trace::AckKind::kFullId;
        e.id_digest = population_[tag].Digest();
        trace_.Emit(e);
      }
    }
  } else {
    ChargeCollisionSlot(occupancy);
  }
  ++slot_cursor_;

  if (slot_cursor_ < frame_size_) return;

  if (frame_transmissions_ == 0) {
    finished_ = true;
    return;
  }
  unread_.erase(std::remove_if(unread_.begin(), unread_.end(),
                               [&](std::uint32_t t) { return read_[t]; }),
                unread_.end());
  StartFrame();
}

PerfectIdentification::PerfectIdentification(std::span<const TagId> population,
                                             anc::Pcg32 rng,
                                             phy::TimingModel timing,
                                             PerfectConfig config)
    : BaselineBase("PERFECT", population, rng, timing), config_(config) {
  metrics_.frames = population.empty() ? 0 : 1;
}

void PerfectIdentification::Step() {
  if (Finished()) return;
  const std::size_t batch = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(config_.capacity, 1)),
      population_.size() - cursor_);
  if (batch == 1) {
    ChargeSingletonSlot();
  } else {
    ++metrics_.collision_slots;
    metrics_.tags_read += batch;
    metrics_.ids_from_collisions += batch;
    metrics_.elapsed_seconds += timing_.SlotSeconds();
    EmitSlot(trace::SlotOutcome::kCollision, batch);
  }
  metrics_.tag_transmissions += batch;
  if (trace_) {
    for (std::size_t i = 0; i < batch; ++i) {
      trace::TraceEvent e;
      e.kind = trace::EventKind::kAck;
      e.slot = slot_index_ - 1;
      e.frame = metrics_.frames;
      e.ack = batch == 1 ? trace::AckKind::kSingletonId
                         : trace::AckKind::kFullId;
      e.id_digest = population_[cursor_ + i].Digest();
      trace_.Emit(e);
    }
  }
  cursor_ += batch;
}

}  // namespace anc::protocols
