// Concurrent-reader-safe epoch snapshot ring: the live-query face of the
// store. The continuous-inventory service publishes one EpochSnapshot per
// epoch while monitor threads read the latest (or a trailing window)
// without ever blocking the writer.
//
// Implementation is a per-entry seqlock over all-atomic fields: the
// writer bumps the entry's sequence to odd, stores the payload, then
// bumps to even; a reader rereads until it sees the same even sequence on
// both sides of its field loads. Every access is a std::atomic operation
// (relaxed payload, fenced), so the scheme is data-race-free by
// construction — TSan-clean, not just "TSan-suppressed" — and the writer
// is wait-free: publishing never takes a lock and never waits on readers.
//
// Readers may observe torn *progress* (a snapshot published between their
// index computation and their read), never torn *data*: Read() returns
// false when the requested entry was overwritten mid-read, and callers
// simply retry against the newer state.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace anc::store {

// One inventory epoch, mirroring the kEpoch trace event payload.
struct EpochSnapshot {
  std::uint64_t epoch = 0;          // epoch index (kEpoch frame)
  std::uint64_t population = 0;     // live tags at snapshot time
  std::uint64_t detected = 0;       // detected-and-present tags
  std::uint64_t ghosts = 0;         // departed tags still reported present
  std::uint64_t staleness_q8 = 0;   // staleness p99, Q8 slots
  std::uint64_t elapsed_us = 0;     // cumulative air time
};

class EpochSnapshotLog {
 public:
  explicit EpochSnapshotLog(std::size_t capacity = 64)
      : entries_(capacity ? capacity : 1) {}

  EpochSnapshotLog(const EpochSnapshotLog&) = delete;
  EpochSnapshotLog& operator=(const EpochSnapshotLog&) = delete;

  std::size_t capacity() const { return entries_.size(); }

  // Total snapshots ever published (the next publish index).
  std::uint64_t published() const {
    return published_.load(std::memory_order_acquire);
  }

  // Single-writer publish; wait-free with respect to readers.
  void Publish(const EpochSnapshot& s) {
    const std::uint64_t index = published_.load(std::memory_order_relaxed);
    Entry& e = entries_[index % entries_.size()];
    const std::uint64_t seq = e.seq.load(std::memory_order_relaxed);
    e.seq.store(seq + 1, std::memory_order_release);  // odd: write in flight
    std::atomic_thread_fence(std::memory_order_seq_cst);
    e.index.store(index, std::memory_order_relaxed);
    e.epoch.store(s.epoch, std::memory_order_relaxed);
    e.population.store(s.population, std::memory_order_relaxed);
    e.detected.store(s.detected, std::memory_order_relaxed);
    e.ghosts.store(s.ghosts, std::memory_order_relaxed);
    e.staleness_q8.store(s.staleness_q8, std::memory_order_relaxed);
    e.elapsed_us.store(s.elapsed_us, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    e.seq.store(seq + 2, std::memory_order_release);  // even: stable
    published_.store(index + 1, std::memory_order_release);
  }

  // Reads snapshot `index` (0-based publish order). Returns false when the
  // entry is not yet published or has been overwritten by ring wraparound
  // (including mid-read) — callers retry against fresher indices.
  bool Read(std::uint64_t index, EpochSnapshot* out) const {
    const std::uint64_t count = published();
    if (index >= count || count - index > entries_.size()) return false;
    const Entry& e = entries_[index % entries_.size()];
    for (;;) {
      const std::uint64_t s1 = e.seq.load(std::memory_order_acquire);
      if (s1 & 1) {
        // Writer mid-publish on this slot: it is overwriting `index` (or
        // a wraparound successor), so the entry is gone either way.
        return false;
      }
      std::atomic_thread_fence(std::memory_order_seq_cst);
      EpochSnapshot snap;
      const std::uint64_t stored_index =
          e.index.load(std::memory_order_relaxed);
      snap.epoch = e.epoch.load(std::memory_order_relaxed);
      snap.population = e.population.load(std::memory_order_relaxed);
      snap.detected = e.detected.load(std::memory_order_relaxed);
      snap.ghosts = e.ghosts.load(std::memory_order_relaxed);
      snap.staleness_q8 = e.staleness_q8.load(std::memory_order_relaxed);
      snap.elapsed_us = e.elapsed_us.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (e.seq.load(std::memory_order_acquire) != s1) continue;  // torn
      if (stored_index != index) return false;  // overwritten by wrap
      *out = snap;
      return true;
    }
  }

  // Latest published snapshot. False when nothing is published yet, or
  // when the writer lapped the reader on every one of kLatestAttempts
  // tries — a reader never spins unboundedly behind a fast writer.
  bool Latest(EpochSnapshot* out) const {
    for (int attempt = 0; attempt < kLatestAttempts; ++attempt) {
      const std::uint64_t count = published();
      if (count == 0) return false;
      // A failed read means the writer lapped us; newer data exists.
      if (Read(count - 1, out)) return true;
    }
    return false;
  }

  // Up to `n` most recent snapshots, oldest first, each internally
  // consistent (the window itself may straddle a publish — that is the
  // documented "consistent epoch, racing progress" contract).
  std::vector<EpochSnapshot> Window(std::size_t n) const {
    std::vector<EpochSnapshot> out;
    const std::uint64_t count = published();
    const std::uint64_t span =
        std::min<std::uint64_t>({n, count, entries_.size()});
    out.reserve(static_cast<std::size_t>(span));
    for (std::uint64_t i = count - span; i < count; ++i) {
      EpochSnapshot snap;
      if (Read(i, &snap)) out.push_back(snap);
    }
    return out;
  }

 private:
  static constexpr int kLatestAttempts = 64;

  struct Entry {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> index{0};
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> population{0};
    std::atomic<std::uint64_t> detected{0};
    std::atomic<std::uint64_t> ghosts{0};
    std::atomic<std::uint64_t> staleness_q8{0};
    std::atomic<std::uint64_t> elapsed_us{0};
  };

  std::vector<Entry> entries_;
  std::atomic<std::uint64_t> published_{0};
};

}  // namespace anc::store
