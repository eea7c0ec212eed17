#include "protocols/irsa.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/hash.h"

namespace anc::protocols {

namespace {

// Picks `degree` distinct slots from `next_slot()` by rejection (degrees
// are tiny against the frame), in draw order.
template <typename NextSlot>
SeededPattern PickSlots(int degree, NextSlot next_slot) {
  SeededPattern p;
  p.degree = degree;
  int picked = 0;
  while (picked < degree) {
    const std::uint32_t slot = next_slot();
    bool duplicate = false;
    for (int i = 0; i < picked; ++i) duplicate |= p.slots[i] == slot;
    if (duplicate) continue;
    p.slots[picked++] = slot;
  }
  return p;
}

int MaxDegree(std::uint64_t frame_size) {
  return static_cast<int>(std::min<std::uint64_t>(
      frame_size, static_cast<std::uint64_t>(SeededPattern::kMaxDegree)));
}

}  // namespace

SeededPattern DeriveSeededPattern(std::uint64_t tag_digest,
                                  std::uint64_t run_salt,
                                  std::uint64_t frame_index,
                                  std::uint64_t frame_size,
                                  const DegreeDistribution& degrees) {
  if (frame_size == 0) return {};
  // The per-(tag, frame) seed the tag announces in its burst headers; the
  // whole pattern is a pure SplitMix64 counter chain over it.
  const std::uint64_t seed =
      SplitMix64(SplitMix64(tag_digest ^ run_salt) ^ frame_index);
  const int degree = std::min(degrees.SampleFromUniform(SplitMix64(seed)),
                              MaxDegree(frame_size));
  std::uint64_t counter = seed;
  return PickSlots(degree, [&] {
    return static_cast<std::uint32_t>(
        SplitMix64(++counter) % frame_size);  // 64-bit hash: bias < 2^-49
  });
}

Irsa::Irsa(std::span<const TagId> population, anc::Pcg32 rng,
           phy::TimingModel timing, IrsaConfig config)
    : BaselineBase(config.seeded_store_capacity ? "SEEDED" : "IRSA",
                   population, rng, timing),
      config_(config),
      read_(population.size(), false),
      present_(population.size(), true),
      digest_to_index_(IndexByDigest(population)) {
  if (seeded()) {
    // One salt per run, announced with the reader's frame advertisement;
    // drawn before any other use of the stream so the pattern inputs are
    // a fixed function of the run seed.
    const std::uint64_t hi = rng_();
    const std::uint64_t lo = rng_();
    run_salt_ = hi << 32 | lo;
  } else if (const int d = config_.degrees.FixedDegree()) {
    name_storage_ = "CRDSA-" + std::to_string(d);
    name_ = name_storage_;
  }
}

void Irsa::RebuildUnread() {
  unread_.clear();
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(population_.size()); ++i) {
    if (present_[i] && !read_[i]) unread_.push_back(i);
  }
}

bool Irsa::ArriveTag(const TagId& id) {
  const std::uint32_t tag = digest_to_index_.Find(id.Digest());
  if (tag == DigestIndex::kNone) return false;
  present_[tag] = true;
  return true;
}

bool Irsa::DepartTag(const TagId& id) {
  const std::uint32_t tag = digest_to_index_.Find(id.Digest());
  if (tag == DigestIndex::kNone) return false;
  present_[tag] = false;
  // Replicas already on the air (and contributions to stored records)
  // stay buffered at the reader; the ones the tag would have transmitted
  // in the remainder of the frame vanish.
  for (std::uint64_t s = slot_cursor_; s < frame_size_; ++s) {
    slot_tags_.Remove(s, tag);
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
      kMinFrameSize, kMaxFrameSize);

  slot_cursor_ = 0;
  frame_transmissions_ = 0;
  slot_tags_.Reset(frame_size_);
  const auto frame = static_cast<std::uint32_t>(frame_size_);
  for (std::uint32_t tag : unread_) {
    // Seeded: the pattern the tag's announced seed determines. Otherwise
    // the tag's private draws: a degree from Λ, then that many slots.
    const SeededPattern p =
        seeded()
            ? DeriveSeededPattern(population_[tag].Digest(), run_salt_,
                                  metrics_.frames, frame_size_,
                                  config_.degrees)
            : PickSlots(std::min(config_.degrees.Sample(rng_),
                                 MaxDegree(frame_size_)),
                        [&] { return rng_.UniformBelow(frame); });
    for (int i = 0; i < p.degree; ++i) slot_tags_.Push(p.slots[i], tag);
    metrics_.tag_transmissions += static_cast<std::uint64_t>(p.degree);
    ++frame_transmissions_;
  }
  slot_tags_.Build();
}

void Irsa::DecodeFrame() {
  // Whole-frame SIC: decode singletons, cancel every copy of a decoded
  // tag from the buffered slots, repeat until a stopping set survives.
  // Equations [0, frame_size_) are the frame's slots; in seeded mode
  // frame_size_ + j is stored record j, whose constituents are known up
  // front (regenerated from the announced seeds). Stored records enter
  // each frame with >= 2 unknown constituents (the storage invariant
  // below), so none start ready. Slots that were singletons before any
  // cancellation attribute their ID to ids_from_singletons; the rest were
  // recovered from collisions.
  peeler_.Reset(static_cast<std::uint32_t>(read_.size()));
  for (std::uint64_t s = 0; s < frame_size_; ++s) {
    peeler_.AddEquation(slot_tags_[s]);
  }
  for (const StoredRecord& r : records_) peeler_.AddEquation(r.constituents);
  peeler_.Decode();

  for (const auto& [tag, equation] : peeler_.reads()) {
    const bool stored = equation >= frame_size_;
    const bool singleton = !stored && slot_tags_.Occupancy(equation) == 1;
    read_[tag] = true;
    learned_this_step_.push_back(population_[tag]);
    ++metrics_.tags_read;
    if (singleton) {
      ++metrics_.ids_from_singletons;
    } else {
      ++metrics_.ids_from_collisions;
    }
    if (trace_) {
      if (stored) {
        trace::TraceEvent r;
        r.kind = trace::EventKind::kRecordResolve;
        r.slot = slot_index_;
        r.frame = metrics_.frames;
        r.record = records_[equation - frame_size_].id;
        r.id_digest = population_[tag].Digest();
        r.cascade = true;  // resolved by cross-frame cancellation
        trace_.Emit(r);
      }
      trace::TraceEvent e;
      e.kind = trace::EventKind::kAck;
      e.slot = slot_index_;
      e.frame = metrics_.frames;
      e.ack = singleton ? trace::AckKind::kSingletonId
                        : trace::AckKind::kSlotIndex;
      e.id_digest = population_[tag].Digest();
      trace_.Emit(e);
    }
  }
  if (!seeded()) return;

  // Surviving constituents keep their order (checkpoints serialize it).
  // Drop stored records that resolved or emptied out (storage invariant:
  // an open record keeps >= 2 unknown constituents).
  const auto decoded = [this](std::uint32_t tag) {
    return peeler_.Decoded(tag);
  };
  for (StoredRecord& r : records_) std::erase_if(r.constituents, decoded);
  std::erase_if(records_, [](const StoredRecord& r) {
    return r.constituents.size() < 2;
  });

  // This frame's surviving collision slots become open records: their
  // constituents are known (seed headers), so they may resolve later.
  for (std::uint64_t s = 0; s < frame_size_; ++s) {
    if (peeler_.Remaining(s) < 2) continue;
    if (trace_) {
      trace::TraceEvent e;
      e.kind = trace::EventKind::kRecordOpen;
      e.slot = slot_index_ - frame_size_ + s;
      e.frame = metrics_.frames;
      e.record = next_record_id_;
      // No responders field: the wire format carries only the handle for
      // record_open; the slot's own kSlot event has the occupancy.
      trace_.Emit(e);
    }
    const std::span<const std::uint32_t> tags = slot_tags_[s];
    StoredRecord record{next_record_id_++, {tags.begin(), tags.end()}};
    std::erase_if(record.constituents, decoded);
    records_.push_back(std::move(record));
  }
  // Oldest-first eviction: records_ is in ascending id order.
  const std::size_t capacity = *config_.seeded_store_capacity;
  if (capacity > 0 && records_.size() > capacity) {
    const std::size_t excess = records_.size() - capacity;
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(excess));
    metrics_.records_evicted += excess;
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

  const std::size_t occupancy = slot_tags_.Occupancy(slot_cursor_);
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
    for (std::uint64_t s = 0; s < frame_size_; ++s) {
      n_c += slot_tags_.Occupancy(s) >= 2 ? 1 : 0;
    }
    trace::TraceEvent e;
    e.kind = trace::EventKind::kFrame;
    e.slot = slot_index_;
    e.frame = metrics_.frames;
    e.n_c = n_c;
    e.record = records_.size();  // open-record store occupancy
    e.estimate_q8 =
        trace::QuantizeEstimate(static_cast<double>(unread_.size()));
    e.elapsed_us = trace::QuantizeSeconds(metrics_.elapsed_seconds);
    trace_.Emit(e);
  }
  if (frame_transmissions_ == 0) {
    // Records only hold unread constituents, so a drained population has
    // already emptied the store; anything left is released and reported
    // as unresolved.
    metrics_.unresolved_records += records_.size();
    records_.clear();
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
  ser::PutVarint(*out, slot_tags_.num_slots());
  for (std::size_t s = 0; s < slot_tags_.num_slots(); ++s) {
    const std::span<const std::uint32_t> tags = slot_tags_[s];
    ser::PutVarint(*out, tags.size());
    for (std::uint32_t tag : tags) ser::PutVarint(*out, tag);
  }
  ser::PutBool(*out, needs_frame_);
  ser::PutBool(*out, finished_);
  if (!seeded()) return;
  ser::PutVarint(*out, records_.size());
  for (const StoredRecord& record : records_) {
    ser::PutVarint(*out, record.id);
    ser::PutVarint(*out, record.constituents.size());
    for (std::uint32_t tag : record.constituents) {
      ser::PutVarint(*out, tag);
    }
  }
  ser::PutVarint(*out, next_record_id_);
}

bool Irsa::RestoreState(std::string_view bytes) {
  ser::Reader r{bytes};
  if (!RestoreBaseState(r)) return false;
  // Every tag list holds distinct indices into the population: Step(),
  // DepartTag() and the decoder index by them. `stamp` marks the tags
  // seen in the list being read.
  const std::size_t n_tags = population_.size();
  std::vector<std::uint64_t> stamp(n_tags, 0);
  std::uint64_t list = 0;
  const auto read_tags = [&](std::vector<std::uint32_t>& tags) {
    const std::uint64_t size = r.Varint();
    if (!r.ok || size > n_tags) return false;
    ++list;
    tags.assign(static_cast<std::size_t>(size), 0);
    for (std::uint32_t& tag : tags) {
      const std::uint64_t v = r.Varint();
      if (!r.ok || v >= n_tags || stamp[v] == list) return false;
      stamp[v] = list;
      tag = static_cast<std::uint32_t>(v);
    }
    return true;
  };

  if (!read_tags(unread_)) return false;
  if (static_cast<std::size_t>(r.Varint()) != read_.size()) return false;
  for (std::size_t i = 0; i < read_.size(); ++i) read_[i] = r.Bool();
  for (std::size_t i = 0; i < present_.size(); ++i) present_[i] = r.Bool();
  frame_size_ = r.Varint();
  slot_cursor_ = r.Varint();
  frame_transmissions_ = r.Varint();
  if (frame_size_ > kMaxFrameSize || slot_cursor_ > frame_size_ ||
      r.Varint() != frame_size_) {
    return false;
  }
  // Each slot list is checked like any other, then queued in slot order,
  // so Build() lays the rows out exactly as they were saved.
  slot_tags_.Reset(static_cast<std::size_t>(frame_size_));
  std::vector<std::uint32_t> tags;
  std::uint64_t replicas = 0;
  for (std::uint64_t s = 0; s < frame_size_; ++s) {
    if (!read_tags(tags)) return false;
    replicas += tags.size();
    if (replicas > UINT32_MAX) return false;  // past a 32-bit row offset
    for (std::uint32_t tag : tags) {
      slot_tags_.Push(static_cast<std::uint32_t>(s), tag);
    }
  }
  slot_tags_.Build();
  needs_frame_ = r.Bool();
  finished_ = r.Bool();
  // A frame in progress has a slot left to air.
  if (!needs_frame_ && !finished_ && slot_cursor_ == frame_size_) {
    return false;
  }
  records_.clear();
  if (seeded()) {
    const std::uint64_t count = r.Varint();
    if (count > bytes.size()) return false;  // each record takes >= 2 bytes
    records_.resize(static_cast<std::size_t>(count));
    for (StoredRecord& record : records_) {
      record.id = r.Varint();
      if (!read_tags(record.constituents)) return false;
    }
    next_record_id_ = r.Varint();
  }
  learned_this_step_.clear();
  return r.ok && r.AtEnd();
}

}  // namespace anc::protocols
