#include "phy/ideal_phy.h"

#include <algorithm>
#include <array>

namespace anc::phy {

IdealPhy::IdealPhy(std::span<const TagId> population, IdealPhyConfig config,
                   anc::Pcg32 rng)
    : population_(population), config_(config), rng_(rng) {}

void IdealPhy::ObserveBatch(const SlotBatch& batch,
                            std::span<SlotObservation> out) {
  for (std::size_t i = 0; i < batch.slots(); ++i) {
    const auto participants = batch.ParticipantsOf(i);
    SlotObservation& obs = out[i];
    obs = SlotObservation{};
    if (participants.empty()) {
      obs.type = SlotType::kEmpty;
      continue;
    }

    if (participants.size() == 1 &&
        rng_.UniformDouble() >= config_.singleton_corrupt_prob) {
      obs.type = SlotType::kSingleton;
      obs.singleton_id = population_[participants[0]];
      continue;
    }

    // Collision, or a singleton whose CRC failed: the reader can only
    // store the received signal as a collision record.
    obs.type = participants.size() == 1 ? SlotType::kSingleton
                                        : SlotType::kCollision;
    Record record;
    record.offset = static_cast<std::uint32_t>(participants_arena_.size());
    record.count = static_cast<std::uint32_t>(participants.size());
    record.open = true;
    // A corrupted singleton's stored signal is garbage: it can never be
    // resolved, only superseded when the tag retries.
    record.doomed = participants.size() == 1;
    participants_arena_.insert(participants_arena_.end(),
                               participants.begin(), participants.end());
    records_.push_back(record);
    ++open_records_;
    obs.record =
        RecordHandle(static_cast<std::uint32_t>(records_.size() - 1));
  }
}

bool IdealPhy::RejectsResolve(RecordHandle handle, std::size_t knowns) const {
  if (handle.index() >= records_.size()) return true;
  const Record& record = records_[handle.index()];
  return !record.open || record.doomed || record.count > config_.lambda ||
         knowns + 1 != record.count;
}

std::optional<TagId> IdealPhy::ResolveOne(const ResolveRequest& request) {
  if (RejectsResolve(request.record, request.known_participants.size())) {
    return std::nullopt;
  }
  Record& record = records_[request.record.index()];
  if (rng_.UniformDouble() >= config_.resolution_success_prob) {
    // A noise-corrupted record never becomes resolvable (Section IV-E):
    // the slot is wasted, but the missing tag keeps transmitting and will
    // be learned elsewhere.
    record.doomed = true;
    return std::nullopt;
  }

  const auto participants = std::span<const std::uint32_t>(
      participants_arena_.data() + record.offset, record.count);
  const auto& knowns = request.known_participants;
  for (std::uint32_t tag : participants) {
    if (std::find(knowns.begin(), knowns.end(), tag) == knowns.end()) {
      return population_[tag];
    }
  }
  return std::nullopt;  // all constituents already known; nothing to gain
}

void IdealPhy::TryResolveBatch(std::span<const ResolveRequest> requests,
                               std::span<std::optional<TagId>> out) {
  // Sequential on purpose: the success-probability draws must consume the
  // RNG stream in request order for trace reproducibility.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out[i] = ResolveOne(requests[i]);
  }
}

void IdealPhy::ReleaseRecord(RecordHandle handle) {
  if (handle.index() >= records_.size()) return;
  Record& record = records_[handle.index()];
  if (record.open) {
    record.open = false;
    --open_records_;
  }
}

void IdealPhy::SaveState(anc::ser::Pieces& out) const {
  // A closed record never changes (doomed is only set while open), and
  // the participant arena is only appended to.
  records_cache_.Update(
      records_,
      [](const Record& record) {
        return std::array<std::uint64_t, 4>{record.offset, record.count,
                                            record.open, record.doomed};
      },
      [this](std::size_t i) { return records_[i].open; });
  participants_cache_.Update(participants_arena_, ser::Value{},
                             [](std::size_t) { return false; });
  PutPcg32(out.bytes(), rng_);
  ser::PutVarint(out.bytes(), records_.size());
  records_cache_.AppendTo(out);
  ser::PutVarint(out.bytes(), participants_arena_.size());
  participants_cache_.AppendTo(out);
  ser::PutVarint(out.bytes(), open_records_);
}

void IdealPhy::SaveState(std::string* out) const {
  ser::Pieces pieces;
  SaveState(pieces);
  pieces.AppendTo(*out);
}

bool IdealPhy::RestoreState(anc::ser::Reader& r) {
  records_cache_.Clear();
  participants_cache_.Clear();
  if (!ReadPcg32(r, rng_)) return false;
  records_.assign(static_cast<std::size_t>(r.Count()), Record{});
  for (Record& record : records_) {
    const std::uint64_t offset = r.Varint();
    const std::uint64_t count = r.Varint();
    if (offset > UINT32_MAX || count > UINT32_MAX) return false;
    record.offset = static_cast<std::uint32_t>(offset);
    record.count = static_cast<std::uint32_t>(count);
    record.open = r.Bool();
    record.doomed = r.Bool();
  }
  participants_arena_.assign(static_cast<std::size_t>(r.Count()), 0);
  for (std::uint32_t& tag : participants_arena_) {
    const std::uint64_t v = r.Varint();
    if (v >= population_.size()) return false;
    tag = static_cast<std::uint32_t>(v);
  }
  open_records_ = static_cast<std::size_t>(r.Varint());
  // ResolveOne reads a record's slice of the arena and indexes the
  // population by its tags.
  std::size_t open = 0;
  for (const Record& record : records_) {
    if (std::uint64_t{record.offset} + record.count >
        participants_arena_.size()) {
      return false;
    }
    open += record.open ? 1 : 0;
  }
  return r.ok && open == open_records_;
}

}  // namespace anc::phy
