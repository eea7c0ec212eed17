#include "store/lz.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace anc::store {
namespace {

constexpr std::size_t kWindow = 65535;   // max match distance (2-byte offset)
constexpr std::size_t kMinMatch = 4;
constexpr int kHashBits = 15;
constexpr int kMaxChain = 32;            // candidates examined per position

inline std::uint32_t Hash4(const unsigned char* p) {
  // Explicit little-endian assembly keeps match selection (and therefore
  // the compressed bytes) identical on any platform.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          static_cast<std::uint32_t>(p[1]) << 8 |
                          static_cast<std::uint32_t>(p[2]) << 16 |
                          static_cast<std::uint32_t>(p[3]) << 24;
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline std::uint32_t Load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

// Length of the common prefix of a and b, at most `cap` bytes; compares
// eight bytes at a time, then finds the first differing byte.
inline std::size_t CommonPrefix(const unsigned char* a, const unsigned char* b,
                                std::size_t cap) {
  std::size_t m = 0;
  for (; m + 8 <= cap; m += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + m, 8);
    std::memcpy(&y, b + m, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
      return m + static_cast<std::size_t>(bit) / 8;
    }
  }
  while (m < cap && a[m] == b[m]) ++m;
  return m;
}

inline void PutLen(std::string& out, std::size_t v) {
  while (v >= 255) {
    out.push_back(static_cast<char>(0xFF));
    v -= 255;
  }
  out.push_back(static_cast<char>(v));
}

void EmitSequence(std::string& out, std::string_view raw,
                  std::size_t lit_start, std::size_t lit_len,
                  std::size_t match_len, std::size_t dist) {
  const std::size_t lit_nibble = lit_len < 15 ? lit_len : 15;
  const std::size_t match_code = match_len > 0 ? match_len - kMinMatch : 0;
  const std::size_t match_nibble = match_code < 15 ? match_code : 15;
  out.push_back(static_cast<char>(lit_nibble << 4 | match_nibble));
  if (lit_nibble == 15) PutLen(out, lit_len - 15);
  out.append(raw.substr(lit_start, lit_len));
  if (match_len == 0) return;  // final, literals-only sequence
  out.push_back(static_cast<char>(dist & 0xFF));
  out.push_back(static_cast<char>(dist >> 8));
  if (match_nibble == 15) PutLen(out, match_code - 15);
}

}  // namespace

std::string LzCompress(std::string_view raw) {
  const std::size_t n = raw.size();
  std::string out;
  if (n == 0) return out;
  out.reserve(n + n / 255 + 16);  // the worst case: no reallocation
  const auto* bytes = reinterpret_cast<const unsigned char*>(raw.data());

  // Hash-chain heads and links hold position + 1, so 0 ends a chain.
  // Only the heads need clearing: a walk reads the link of a position
  // only after that position was inserted.
  std::vector<std::uint32_t> head(std::size_t{1} << kHashBits);
  const std::unique_ptr<std::uint32_t[]> prev(new std::uint32_t[n]);
  const auto insert = [&](std::size_t p) {
    if (p + kMinMatch > n) return;
    const std::uint32_t h = Hash4(bytes + p);
    prev[p] = head[h];
    head[h] = static_cast<std::uint32_t>(p + 1);
  };
  // Longest match for position p among the (depth-capped) chain. Returns
  // length 0 when nothing of kMinMatch+ is in range.
  const auto find = [&](std::size_t p, std::size_t* dist) -> std::size_t {
    if (p + kMinMatch > n) return 0;
    std::size_t best = 0;
    int depth = 0;
    for (std::uint32_t link = head[Hash4(bytes + p)];
         link != 0 && depth < kMaxChain;
         link = prev[link - 1], ++depth) {
      const std::size_t j = link - 1;
      if (p - j > kWindow) break;  // chains are position-ordered
      // Skip candidates that cannot become the winner, which is the first
      // one with the longest match of kMinMatch+ bytes: it must agree on
      // its first four bytes, and beating `best` means agreeing on the
      // four ending at offset best too.
      if (best < kMinMatch ? Load32(bytes + j) != Load32(bytes + p)
                           : p + best >= n ||
                                 Load32(bytes + j + best - 3) !=
                                     Load32(bytes + p + best - 3)) {
        continue;
      }
      const std::size_t m = CommonPrefix(bytes + j, bytes + p, n - p);
      if (m > best) {
        best = m;
        *dist = p - j;
      }
    }
    return best >= kMinMatch ? best : 0;
  };

  std::size_t i = 0, anchor = 0;
  while (i < n) {
    std::size_t dist = 0;
    const std::size_t m = find(i, &dist);
    if (m == 0) {
      insert(i);
      ++i;
      continue;
    }
    // One-step lazy: prefer a clearly better match starting one byte on.
    if (i + 1 < n) {
      std::size_t dist2 = 0;
      const std::size_t m2 = find(i + 1, &dist2);
      if (m2 > m + 1) {
        insert(i);
        ++i;
        continue;
      }
    }
    EmitSequence(out, raw, anchor, i - anchor, m, dist);
    const std::size_t end = i + m;
    while (i < end) insert(i++);
    anchor = i;
  }
  EmitSequence(out, raw, anchor, n - anchor, 0, 0);
  return out;
}

namespace {

// Room past `raw_len` that Decode's wide copies may write into: a short
// literal run is copied as 16 bytes and a match as whole 8-byte words,
// whatever their lengths. An overrun lands only in this slack or on bytes
// a later token writes, so it never reaches the output.
constexpr std::size_t kSlack = 16;

// Adds the 255-run extension bytes of a length whose nibble is 15 to *v
// and moves *i past them. False when the stream ends inside them.
inline bool ReadLenExt(const unsigned char* src, std::size_t n, std::size_t* i,
                       std::size_t* v) {
  for (;;) {
    if (*i >= n) return false;
    const unsigned b = src[(*i)++];
    *v += b;
    if (b < 255) return true;
  }
}

// LzDecompress's body: fills the `raw_len` bytes of *out, or returns an
// error naming the first malformed token.
std::string Decode(std::string_view comp, std::size_t raw_len,
                   std::string* out) {
  if (comp.empty()) {
    return raw_len == 0 ? "" : "empty compressed block for nonzero size";
  }
  // No token sequence yields more than 255 bytes per stream byte, so a
  // larger claim is corrupt: refuse it before sizing the output.
  if (raw_len / 255 > comp.size()) {
    return "declared size " + std::to_string(raw_len) + " exceeds what " +
           std::to_string(comp.size()) + " compressed bytes can encode";
  }
  out->resize(raw_len + kSlack);
  char* const dst = out->data();
  const auto* const src = reinterpret_cast<const unsigned char*>(comp.data());
  const std::size_t n = comp.size();
  const auto err_at = [](const char* what, std::size_t pos) {
    return std::string(what) + " at compressed offset " + std::to_string(pos);
  };
  std::size_t i = 0;  // stream bytes read
  std::size_t o = 0;  // bytes produced
  while (i < n) {
    const unsigned token = src[i++];
    std::size_t lit = token >> 4;
    if (lit == 15 && !ReadLenExt(src, n, &i, &lit)) {
      return err_at("truncated length extension", i);
    }
    if (lit > n - i) return err_at("truncated literals", i);
    if (lit > raw_len - o) {
      return err_at("literal run overflows declared size", i);
    }
    if (lit <= 16 && n - i >= 16) {
      std::memcpy(dst + o, src + i, 16);
    } else {
      std::memcpy(dst + o, src + i, lit);
    }
    o += lit;
    i += lit;
    if (i == n) break;  // final sequence: literals end the stream
    if (n - i < 2) return err_at("truncated match offset", i);
    const std::size_t dist = src[i] | static_cast<std::size_t>(src[i + 1]) << 8;
    i += 2;
    if (dist == 0 || dist > o) {
      return err_at("match offset outside produced output", i - 2);
    }
    std::size_t match = token & 0x0F;
    if (match == 15 && !ReadLenExt(src, n, &i, &match)) {
      return err_at("truncated length extension", i);
    }
    match += kMinMatch;
    if (match > raw_len - o) {
      return err_at("match overflows declared size", i);
    }
    char* const to = dst + o;
    if (dist >= 16) {
      // Wide copies: each reads bytes at least one copy width behind what
      // it writes, all produced already, so overlapping matches
      // replicate too.
      for (std::size_t k = 0; k < match; k += 16) {
        std::memcpy(to + k, to + k - dist, 16);
      }
    } else if (dist >= 8) {
      for (std::size_t k = 0; k < match; k += 8) {
        std::memcpy(to + k, to + k - dist, 8);
      }
    } else {
      // Period under 8: byte at a time, so it replicates.
      for (std::size_t k = 0; k < match; ++k) to[k] = to[k - dist];
    }
    o += match;
  }
  if (o != raw_len) {
    return "decompressed " + std::to_string(o) + " bytes, block declares " +
           std::to_string(raw_len);
  }
  out->resize(raw_len);
  return "";
}

}  // namespace

std::string LzDecompress(std::string_view comp, std::size_t raw_len,
                         std::string* out) {
  std::string err = Decode(comp, raw_len, out);
  if (!err.empty()) out->clear();
  return err;
}

}  // namespace anc::store
