// A flat map from a 64-bit TagId digest to a 32-bit index: the per-run
// "which tag of the population is this ID" table that the engine, the
// coded-ALOHA protocols, the inventory service and the deployment each
// build once per run, and the population generator's duplicate check.
//
// Open addressing with linear probing over a power-of-two table of at
// least twice the expected key count (load <= 0.5), held in one
// allocation of 12-byte slots. Keys are TagId::Digest() values (SplitMix64
// outputs), whose low bits are already uniform, so a key's home slot is
// its low bits with no further mixing. Every 64-bit value is a valid key,
// so emptiness is marked in the value instead: kNone, which no inserted
// value may equal.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/tag_id.h"

namespace anc {

class DigestIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  // Room for at least `n` keys.
  explicit DigestIndex(std::size_t n = 0) : slots_(CapacityFor(n)) {}

  // Maps `key` to `value` unless `key` is already present, in which case
  // the first value is kept (std::unordered_map::emplace semantics).
  // Returns true when the key was new. A new key past the sized capacity,
  // where the load would exceed one half, throws.
  bool Insert(std::uint64_t key, std::uint32_t value) {
    if (value == kNone) throw std::invalid_argument("DigestIndex: kNone value");
    Slot& slot = slots_[SlotOf(key)];
    if (slot.value != kNone) return false;
    if (2 * (size_ + 1) > slots_.size()) {
      throw std::length_error("DigestIndex: more keys than it was sized for");
    }
    slot = Slot{static_cast<std::uint32_t>(key),
                static_cast<std::uint32_t>(key >> 32), value};
    ++size_;
    return true;
  }

  // The value mapped to `key`, or kNone.
  std::uint32_t Find(std::uint64_t key) const {
    return slots_[SlotOf(key)].value;
  }

  std::size_t size() const { return size_; }

 private:
  // Two 32-bit key halves keep the slot 4-byte aligned: 12 bytes, not 16.
  struct Slot {
    std::uint32_t key_lo = 0;
    std::uint32_t key_hi = 0;
    std::uint32_t value = kNone;
  };

  static std::size_t CapacityFor(std::size_t n) {
    return std::bit_ceil(n < 1 ? std::size_t{2} : 2 * n);
  }

  // The slot holding `key`, or the empty slot that ends its probe chain.
  // The table is never full, so the walk always ends.
  std::size_t SlotOf(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    const auto lo = static_cast<std::uint32_t>(key);
    const auto hi = static_cast<std::uint32_t>(key >> 32);
    for (std::size_t i = key & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.value == kNone || (slot.key_lo == lo && slot.key_hi == hi)) {
        return i;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

// Index of each ID's position in `ids`; a repeated digest keeps its first
// position.
inline DigestIndex IndexByDigest(std::span<const TagId> ids) {
  DigestIndex index(ids.size());
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    index.Insert(ids[i].Digest(), i);
  }
  return index;
}

}  // namespace anc
