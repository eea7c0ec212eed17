#include "protocols/irsa.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace anc::protocols {

namespace {
constexpr std::uint32_t kNoTag = ~std::uint32_t{0};
}  // namespace

Irsa::Irsa(std::span<const TagId> population, anc::Pcg32 rng,
           phy::TimingModel timing, IrsaConfig config)
    : BaselineBase("IRSA", population, rng, timing),
      config_(config),
      read_(population.size(), false),
      present_(population.size(), true) {
  if (const int d = config_.degrees.FixedDegree()) {
    name_storage_ = "CRDSA-" + std::to_string(d);
    name_ = name_storage_;
  }
  digest_to_index_.reserve(population.size() * 2);
  for (std::uint32_t i = 0; i < population.size(); ++i) {
    digest_to_index_.emplace(population[i].Digest(), i);
  }
}

std::uint32_t Irsa::IndexOf(const TagId& id) const {
  const auto it = digest_to_index_.find(id.Digest());
  return it == digest_to_index_.end() ? kNoTag : it->second;
}

void Irsa::RebuildUnread() {
  unread_.clear();
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(population_.size()); ++i) {
    if (present_[i] && !read_[i]) unread_.push_back(i);
  }
}

bool Irsa::ArriveTag(const TagId& id) {
  const std::uint32_t tag = IndexOf(id);
  if (tag == kNoTag) return false;
  present_[tag] = true;
  return true;
}

bool Irsa::DepartTag(const TagId& id) {
  const std::uint32_t tag = IndexOf(id);
  if (tag == kNoTag) return false;
  present_[tag] = false;
  // Replicas already on the air stay buffered at the reader; the ones the
  // tag would have transmitted in the remainder of the frame vanish.
  for (std::uint64_t s = slot_cursor_; s < frame_size_; ++s) {
    auto& tags = slot_tags_[s];
    tags.erase(std::remove(tags.begin(), tags.end(), tag), tags.end());
  }
  return true;
}

bool Irsa::BeginInventoryRound(bool refresh) {
  finished_ = false;
  if (refresh) {
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(population_.size()); ++i) {
      if (present_[i]) read_[i] = false;
    }
  }
  needs_frame_ = true;
  return true;
}

void Irsa::StartFrame() {
  ++metrics_.frames;
  const auto backlog = static_cast<double>(unread_.size());
  frame_size_ = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::llround(backlog / config_.target_load)),
      config_.min_frame_size, config_.max_frame_size);

  slot_cursor_ = 0;
  frame_transmissions_ = 0;
  slot_tags_.assign(frame_size_, {});
  for (std::uint32_t tag : unread_) {
    // Sample the replica degree from Λ, then pick that many distinct
    // slots (rejection sampling; degrees are tiny against the frame).
    const int degree =
        std::min<int>(config_.degrees.Sample(rng_),
                      static_cast<int>(std::min<std::uint64_t>(frame_size_, 16)));
    std::uint32_t chosen[16];
    int picked = 0;
    while (picked < degree) {
      const std::uint32_t slot =
          rng_.UniformBelow(static_cast<std::uint32_t>(frame_size_));
      bool duplicate = false;
      for (int i = 0; i < picked; ++i) duplicate |= chosen[i] == slot;
      if (duplicate) continue;
      chosen[picked++] = slot;
      slot_tags_[slot].push_back(tag);
      ++metrics_.tag_transmissions;
    }
    ++frame_transmissions_;
  }
}

void Irsa::DecodeFrame() {
  // Whole-frame SIC: decode singletons, cancel every copy of a decoded
  // tag from the buffered slots, repeat until a stopping set survives.
  // Slots that were singletons before any cancellation attribute their
  // ID to ids_from_singletons; the rest were recovered from collisions.
  decoded_.assign(read_.size(), 0);
  std::vector<std::vector<std::uint32_t>> working = slot_tags_;
  ready_.clear();
  for (std::uint64_t s = 0; s < frame_size_; ++s) {
    if (working[s].size() == 1) ready_.push_back(s);
  }

  std::vector<std::pair<std::uint32_t, bool>> reads;  // tag, from_singleton
  int iterations = 0;
  std::size_t head = 0;
  while (head < ready_.size() &&
         iterations <
             config_.max_ic_iterations * static_cast<int>(frame_size_)) {
    const std::uint64_t slot = ready_[head++];
    ++iterations;
    if (working[slot].size() != 1) continue;
    const std::uint32_t tag = working[slot][0];
    if (decoded_[tag]) continue;
    decoded_[tag] = 1;
    reads.emplace_back(tag, slot_tags_[slot].size() == 1);
    for (std::uint64_t s = 0; s < frame_size_; ++s) {
      auto& tags = working[s];
      const auto it = std::find(tags.begin(), tags.end(), tag);
      if (it == tags.end()) continue;
      tags.erase(it);
      if (tags.size() == 1) ready_.push_back(s);
    }
  }

  for (const auto& [tag, from_singleton] : reads) {
    read_[tag] = true;
    learned_this_step_.push_back(population_[tag]);
    ++metrics_.tags_read;
    if (from_singleton) {
      ++metrics_.ids_from_singletons;
    } else {
      ++metrics_.ids_from_collisions;
    }
    if (trace_) {
      trace::TraceEvent e;
      e.kind = trace::EventKind::kAck;
      e.slot = slot_index_;
      e.frame = metrics_.frames;
      e.ack = from_singleton ? trace::AckKind::kSingletonId
                             : trace::AckKind::kSlotIndex;
      e.id_digest = population_[tag].Digest();
      trace_.Emit(e);
    }
  }
}

void Irsa::Step() {
  if (finished_) return;
  learned_this_step_.clear();
  if (needs_frame_) {
    RebuildUnread();
    StartFrame();
    needs_frame_ = false;
  }

  const std::size_t occupancy = slot_tags_[slot_cursor_].size();
  if (occupancy == 0) {
    ++metrics_.empty_slots;
    metrics_.elapsed_seconds += timing_.SlotSeconds();
    EmitSlot(trace::SlotOutcome::kEmpty, 0);
  } else if (occupancy == 1) {
    ++metrics_.singleton_slots;
    metrics_.elapsed_seconds += timing_.SlotSeconds();
    EmitSlot(trace::SlotOutcome::kSingleton, 1);
  } else {
    ++metrics_.collision_slots;
    metrics_.elapsed_seconds += timing_.SlotSeconds();
    EmitSlot(trace::SlotOutcome::kCollision, occupancy);
  }
  ++slot_cursor_;

  if (slot_cursor_ < frame_size_) return;

  // Frame boundary: the reader has the whole frame buffered — decode.
  if (frame_transmissions_ > 0) DecodeFrame();
  if (trace_) {
    std::uint64_t n_c = 0;
    for (const auto& tags : slot_tags_) n_c += tags.size() >= 2 ? 1 : 0;
    trace::TraceEvent e;
    e.kind = trace::EventKind::kFrame;
    e.slot = slot_index_;
    e.frame = metrics_.frames;
    e.n_c = n_c;
    e.estimate_q8 =
        trace::QuantizeEstimate(static_cast<double>(unread_.size()));
    e.elapsed_us = trace::QuantizeSeconds(metrics_.elapsed_seconds);
    trace_.Emit(e);
  }
  if (frame_transmissions_ == 0) {
    finished_ = true;
    return;
  }
  // The next frame is built on that frame's first Step() so churn applied
  // at the boundary is visible to it (RebuildUnread + StartFrame there).
  needs_frame_ = true;
}

void Irsa::SaveState(std::string* out) const {
  SaveBaseState(out);
  ser::PutVarint(*out, unread_.size());
  for (std::uint32_t tag : unread_) ser::PutVarint(*out, tag);
  ser::PutVarint(*out, read_.size());
  for (bool b : read_) ser::PutBool(*out, b);
  for (bool b : present_) ser::PutBool(*out, b);
  ser::PutVarint(*out, frame_size_);
  ser::PutVarint(*out, slot_cursor_);
  ser::PutVarint(*out, frame_transmissions_);
  ser::PutVarint(*out, slot_tags_.size());
  for (const auto& slot : slot_tags_) {
    ser::PutVarint(*out, slot.size());
    for (std::uint32_t tag : slot) ser::PutVarint(*out, tag);
  }
  ser::PutBool(*out, needs_frame_);
  ser::PutBool(*out, finished_);
}

bool Irsa::RestoreState(std::string_view bytes) {
  ser::Reader r{bytes};
  if (!RestoreBaseState(r)) return false;
  unread_.assign(static_cast<std::size_t>(r.Varint()), 0);
  for (std::uint32_t& tag : unread_) {
    tag = static_cast<std::uint32_t>(r.Varint());
  }
  if (static_cast<std::size_t>(r.Varint()) != read_.size()) return false;
  for (std::size_t i = 0; i < read_.size(); ++i) read_[i] = r.Bool();
  for (std::size_t i = 0; i < present_.size(); ++i) present_[i] = r.Bool();
  frame_size_ = r.Varint();
  slot_cursor_ = r.Varint();
  frame_transmissions_ = r.Varint();
  slot_tags_.assign(static_cast<std::size_t>(r.Varint()), {});
  for (auto& slot : slot_tags_) {
    slot.assign(static_cast<std::size_t>(r.Varint()), 0);
    for (std::uint32_t& tag : slot) {
      tag = static_cast<std::uint32_t>(r.Varint());
    }
  }
  needs_frame_ = r.Bool();
  finished_ = r.Bool();
  learned_this_step_.clear();
  return r.ok && r.AtEnd();
}

}  // namespace anc::protocols
