// The buffered frame of the framed readers Irsa (IRSA, CRDSA-d, SEEDED)
// and Mpr: which tags transmitted in each slot. DESIGN.md §7c.
//
// Slots are compressed sparse rows (CSR) over one flat tag array: slot s
// holds tags_[start_[s] .. start_[s] + size_[s]). A frame is built in two
// passes. Push() queues each (slot, tag) replica in draw order and counts
// it against its slot; Build() takes the prefix sum of the counts and
// fills every slot from the queue in that same order, so each slot lists
// its tags exactly as per-slot push_back would have. Remove() shrinks one
// slot's live length in place; the entries it frees stay behind as a hole
// up to the next slot's start until the next Reset().
//
// Every buffer is a member that keeps its capacity across the frames of
// one run, so a frame costs no allocation once the first one has grown
// them. Offsets are 32-bit: a frame holds fewer than 2^32 replicas.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace anc::protocols {

class FrameSlots {
 public:
  // Starts a frame of `num_slots` empty slots.
  void Reset(std::size_t num_slots) {
    start_.assign(num_slots, 0);
    size_.assign(num_slots, 0);
    tags_.clear();
    pending_.clear();
  }

  // Queues one replica: `tag` transmits in `slot` (< num_slots()).
  // Visible only after the next Build().
  void Push(std::uint32_t slot, std::uint32_t tag) {
    pending_.push_back({slot, tag});
    ++size_[slot];
  }

  // Lays the queued replicas out as rows, each slot in push order.
  void Build() {
    std::uint32_t offset = 0;
    for (std::size_t s = 0; s < size_.size(); ++s) {
      start_[s] = offset;
      offset += size_[s];
      size_[s] = 0;  // refilled below, as each slot's fill cursor
    }
    tags_.resize(offset);
    for (const Replica& r : pending_) {
      tags_[start_[r.slot] + size_[r.slot]++] = r.tag;
    }
    pending_.clear();
  }

  std::size_t num_slots() const { return size_.size(); }
  // Live tags of `slot`, in push order less the removed ones.
  std::size_t Occupancy(std::size_t slot) const { return size_[slot]; }
  std::span<const std::uint32_t> operator[](std::size_t slot) const {
    return {tags_.data() + start_[slot], size_[slot]};
  }

  // Drops every copy of `tag` from `slot`, keeping the rest in order.
  void Remove(std::size_t slot, std::uint32_t tag) {
    const auto first = tags_.begin() + start_[slot];
    const auto last = std::remove(first, first + size_[slot], tag);
    size_[slot] = static_cast<std::uint32_t>(last - first);
  }

 private:
  struct Replica {
    std::uint32_t slot;
    std::uint32_t tag;
  };

  std::vector<std::uint32_t> start_;  // first entry of each slot
  std::vector<std::uint32_t> size_;   // live entries of each slot
  std::vector<std::uint32_t> tags_;
  std::vector<Replica> pending_;  // Push() queue, in draw order
};

}  // namespace anc::protocols
