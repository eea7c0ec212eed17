// The byte codec of every stored format: v1 traces, ANCSTORE blocks and
// footers, ANCCKPT checkpoints and .slo result files. It holds unsigned
// LEB128 varints, length-prefixed byte strings, and little-endian
// fixed-width integers and IEEE-754 bit-pattern doubles. It is
// header-only and lives in common so the bottom layers (common RNG and
// stats, the phy record stores, the engine, protocols, deployments, the
// service) can serialize without depending on the trace or store
// libraries.
//
// Doubles are stored as their exact little-endian IEEE-754 bit pattern:
// a restored estimator continues bit-identically, which is what the
// resume-vs-uninterrupted byte-identity tests rely on.
//
// The Reader latches `ok = false` on the first bad read, which returns
// 0; callers check once at the end (fail-closed decode). It accepts
// shortest-form varints only, the only form any writer here emits, so
// every accepted input re-encodes to the same bytes.
//
// Arrays go through PutVarints / AppendVarints: raw WriteVarint stores
// into a stack buffer, appended a few kilobytes at a time — the same
// bytes as a PutVarint loop without a capacity check and terminator
// store per byte. A bool field encodes as the varint 0/1, which is
// PutBool's byte, so a struct of integers and bools can be written as
// one row of varints. The record stores' arenas are cached in that
// encoding (common/chunk_cache.h) and handed out through Pieces, which
// holds views of cached bytes next to freshly written ones, so a
// length-prefixed blob is sized before its bytes are copied, and a
// checkpoint file is written from the views without copying them.
// Reader::Count bounds an item count by the bytes left before anything
// is sized from it.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace anc::ser {

inline void PutByte(std::string& out, std::uint8_t b) {
  out.push_back(static_cast<char>(b));
}

// Writes v's varint encoding at `p` (up to 10 bytes); returns one past
// its last byte. (The do-while form measured faster in the bulk writers
// below than PutVarint's while form.)
inline char* WriteVarint(char* p, std::uint64_t v) {
  do {
    const auto low = static_cast<char>(v & 0x7F);
    v >>= 7;
    *p++ = v != 0 ? static_cast<char>(low | 0x80) : low;
  } while (v != 0);
  return p;
}

inline void PutVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

// Row projection for ranges of plain integers: the value itself.
struct Value {
  std::array<std::uint64_t, 1> operator()(std::uint64_t v) const {
    return {v};
  }
};

namespace detail {

// out.append(data, n), but growing the capacity only by doubling, as
// byte-at-a-time push_back does. A plain append of a chunk larger than a
// small string's capacity would size the buffer to fit and shift every
// later doubling, which moves the peak resident set; this way the bulk
// writers allocate what the PutVarint loops they replace allocated.
inline void AppendDoubling(std::string& out, const char* data,
                           std::size_t n) {
  std::size_t capacity = std::max<std::size_t>(out.capacity(), 1);
  while (capacity < out.size() + n) capacity *= 2;
  out.reserve(capacity);
  out.append(data, n);
}

}  // namespace detail

// Appends, for every item of `items` in order, the varints of the row
// `fields(item)` returns (a std::array of integers). No count prefix.
// Rows are encoded into a stack buffer that is appended whenever it could
// not take another row.
template <class Range, class Fields = Value>
void AppendVarints(std::string& out, const Range& items, Fields fields = {}) {
  using Row = decltype(fields(*std::begin(items)));
  constexpr std::size_t kRowBytes = 10 * std::tuple_size_v<Row>;
  char buf[4096];
  char* p = buf;
  for (const auto& item : items) {
    if (p > buf + sizeof buf - kRowBytes) {
      detail::AppendDoubling(out, buf, static_cast<std::size_t>(p - buf));
      p = buf;
    }
    for (std::uint64_t v : fields(item)) p = WriteVarint(p, v);
  }
  detail::AppendDoubling(out, buf, static_cast<std::size_t>(p - buf));
}

// Count-prefixed AppendVarints: PutVarint(size) followed by the rows.
template <class Range, class Fields = Value>
void PutVarints(std::string& out, const Range& items, Fields fields = {}) {
  PutVarint(out, std::size(items));
  AppendVarints(out, items, fields);
}

inline void PutBool(std::string& out, bool b) { PutByte(out, b ? 1 : 0); }

inline void PutU32Le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutU64Le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutF64(std::string& out, double d) {
  PutU64Le(out, std::bit_cast<std::uint64_t>(d));
}

inline void PutBytes(std::string& out, std::string_view s) {
  PutVarint(out, s.size());
  out.append(s.data(), s.size());
}

// A byte string held as a list of pieces: runs of bytes written through
// bytes(), and views of bytes kept elsewhere (a cache) that must stay
// unchanged until the pieces are copied or written out. A writer can
// size a length-prefixed blob before copying it, and a file writer can
// hand the pieces to writev, so cached bytes are copied at most once.
class Pieces {
 public:
  // Bytes appended here follow every piece added so far.
  std::string& bytes() { return owned_; }

  void AddView(std::string_view view) {
    CloseRun();
    parts_.push_back({view.data(), 0, view.size()});
    size_ += view.size();
  }

  [[nodiscard]] std::size_t size() const {
    return size_ + owned_.size() - run_start_;
  }

  // Calls f(std::string_view) for every piece, in order.
  template <class F>
  void ForEach(F f) const {
    for (const Part& part : parts_) {
      f(part.view != nullptr ? std::string_view(part.view, part.size)
                             : std::string_view(owned_).substr(part.offset,
                                                               part.size));
    }
    if (owned_.size() > run_start_) {
      f(std::string_view(owned_).substr(run_start_));
    }
  }

  void AppendTo(std::string& out) const {
    out.reserve(out.size() + size());
    ForEach([&out](std::string_view piece) { out.append(piece); });
  }

  // Appends every piece of `other` after these: its views stay views of
  // the same bytes, its written bytes are copied into bytes().
  void Append(const Pieces& other) {
    for (const Part& part : other.parts_) {
      if (part.view != nullptr) {
        AddView({part.view, part.size});
      } else {
        owned_.append(other.owned_, part.offset, part.size);
      }
    }
    owned_.append(other.owned_, other.run_start_);
  }

  // Drops every piece. The buffers keep their capacity, so pieces that
  // are cleared and refilled (a run's checkpoint cuts) stop allocating.
  void clear() {
    owned_.clear();
    run_start_ = 0;
    size_ = 0;
    parts_.clear();
  }

 private:
  struct Part {
    const char* view;  // null: owned_ bytes at `offset`
    std::size_t offset;
    std::size_t size;
  };

  void CloseRun() {
    if (owned_.size() == run_start_) return;
    parts_.push_back({nullptr, run_start_, owned_.size() - run_start_});
    size_ += owned_.size() - run_start_;
    run_start_ = owned_.size();
  }

  std::string owned_;
  std::size_t run_start_ = 0;  // start of the open run of owned_ bytes
  std::size_t size_ = 0;       // bytes in parts_
  std::vector<Part> parts_;
};

struct Reader {
  std::string_view bytes;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t Byte() {
    if (pos >= bytes.size()) {
      ok = false;
      return 0;
    }
    return static_cast<std::uint8_t>(bytes[pos++]);
  }

  // Shortest-form varints only: a zero final byte after a continuation,
  // or bits past 64, would decode to a value that re-encodes to other
  // bytes, so both fail like truncation. At most 10 bytes are examined,
  // with one bounds check per call rather than per byte.
  std::uint64_t Varint() {
    if (pos >= bytes.size()) {
      ok = false;
      return 0;
    }
    const auto* p = reinterpret_cast<const std::uint8_t*>(bytes.data()) + pos;
    const std::size_t avail = std::min<std::size_t>(bytes.size() - pos, 10);
    std::uint64_t v = 0;
    for (std::size_t k = 0; k < avail; ++k) {
      const std::uint8_t b = p[k];
      v |= static_cast<std::uint64_t>(b & 0x7F) << (7 * k);
      if (b < 0x80) {
        if (k > 0 && (b == 0 || (k == 9 && b > 1))) break;
        pos += k + 1;
        return v;
      }
    }
    ok = false;
    return 0;
  }

  // A count of items that follow, each taking at least one byte: a count
  // larger than the bytes left latches !ok and reads as 0, so a corrupt
  // count never sizes an allocation.
  std::uint64_t Count() {
    const std::uint64_t n = Varint();
    if (n > bytes.size() - std::min(pos, bytes.size())) {
      ok = false;
      return 0;
    }
    return n;
  }

  bool Bool() { return Byte() != 0; }

  std::uint32_t U32Le() { return static_cast<std::uint32_t>(FixedLe(4)); }
  std::uint64_t U64Le() { return FixedLe(8); }
  double F64() { return std::bit_cast<double>(U64Le()); }

  std::string_view Bytes() {
    const std::uint64_t n = Varint();
    if (!ok || n > bytes.size() - pos || pos > bytes.size()) {
      ok = false;
      return {};
    }
    const std::string_view s = bytes.substr(pos, static_cast<std::size_t>(n));
    pos += static_cast<std::size_t>(n);
    return s;
  }

  bool AtEnd() const { return pos == bytes.size(); }

 private:
  // An n-byte little-endian integer; too few bytes left latch !ok and
  // consume the rest.
  std::uint64_t FixedLe(std::size_t n) {
    if (pos > bytes.size() || bytes.size() - pos < n) {
      ok = false;
      pos = bytes.size();
      return 0;
    }
    const auto* p = reinterpret_cast<const std::uint8_t*>(bytes.data()) + pos;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    pos += n;
    return v;
  }
};

}  // namespace anc::ser
