// Encoded-history cache for checkpoint arenas.
//
// The record stores (phy::IdealPhy, core::RecordTracker) keep a row for
// every record ever opened, and most rows never change again once their
// record closes. VarintChunkCache keeps the varint encoding of such an
// arena (the rows ser::AppendVarints would write) in chunks of kChunkRows
// rows, so a checkpoint re-encodes only what changed since the previous
// one and hands the rest out as views (ser::Pieces).
//
// Rule: when a chunk is encoded, the owner's `may_change(i)` names the
// rows that can still change; the chunk remembers their fields. Update
// re-encodes a chunk only if its row count changed (the arena grew into
// it) or a remembered row's fields differ from the current ones. The
// owner's side of the contract: rows outside the set never change again,
// and the set only loses rows, apart from rows appended to the arena.
// A cache whose arena was replaced (a restore) must be Clear()ed.
//
// The cache is filled and checked inside the owner's SaveState only (as
// a mutable memo): the code that mutates the arena does no extra work.
// It is not safe to save one object from two threads at once.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/serialize.h"

namespace anc::ser {

template <std::size_t K>
class VarintChunkCache {
 public:
  static constexpr std::size_t kChunkRows = 1024;
  using Row = std::array<std::uint64_t, K>;

  // Brings every chunk up to date with `items` (a random-access range;
  // `fields(item)` gives its row, as for AppendVarints). `may_change` is
  // asked about the rows of re-encoded chunks only, in ascending order.
  template <class Range, class Fields, class MayChange>
  void Update(const Range& items, Fields fields, MayChange may_change) {
    const std::size_t n = std::size(items);
    chunks_.resize((n + kChunkRows - 1) / kChunkRows);
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      Chunk& chunk = chunks_[c];
      const std::size_t begin = c * kChunkRows;
      const std::size_t end = std::min(n, begin + kChunkRows);
      bool stale = chunk.rows != end - begin;
      for (std::size_t w = 0; !stale && w < chunk.watched.size(); ++w) {
        stale = fields(items[chunk.watched[w].row]) != chunk.watched[w].fields;
      }
      if (!stale) continue;
      char buf[kChunkRows * 10 * K];
      char* p = buf;
      chunk.watched.clear();
      for (std::size_t i = begin; i < end; ++i) {
        const Row row = fields(items[i]);
        for (std::uint64_t v : row) p = WriteVarint(p, v);
        if (may_change(i)) chunk.watched.push_back({i, row});
      }
      chunk.rows = end - begin;
      chunk.bytes.assign(buf, static_cast<std::size_t>(p - buf));
    }
  }

  // Adds the cached rows to `out` as views (after Update).
  void AppendTo(Pieces& out) const {
    for (const Chunk& chunk : chunks_) out.AddView(chunk.bytes);
  }

  // Calls f(row) for every row may_change named and that has not changed
  // since, ascending (after Update).
  template <class F>
  void ForEachWatched(F f) const {
    for (const Chunk& chunk : chunks_) {
      for (const Watched& w : chunk.watched) f(w.row);
    }
  }

  void Clear() { chunks_.clear(); }

 private:
  struct Watched {
    std::size_t row;
    Row fields;  // as encoded
  };
  struct Chunk {
    std::string bytes;
    std::size_t rows = 0;
    std::vector<Watched> watched;
  };

  std::vector<Chunk> chunks_;
};

}  // namespace anc::ser
