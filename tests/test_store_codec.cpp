// Byte pins and fail-closed sweeps for the trace-store block codec
// (src/store): the LZ compressor's exact output on inputs chosen to
// stress its match finder, the committed golden stores re-encoding to
// their stored payloads byte for byte, and a seeded mutation sweep that
// feeds flipped, truncated and spliced golden bytes to every decoder
// that reads from disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "file_bytes.h"
#include "store/container.h"
#include "store/crc32.h"
#include "store/lz.h"
#include "store/query.h"
#include "trace/binary.h"

namespace anc::store {
namespace {

using testing_files::Slurp;
using testing_files::Spit;

std::string TempPath(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

// ------------------------------------------------------- LZ byte pins --

struct LzCase {
  std::string name;
  std::string raw;
};

// Inputs aimed at the parts of the match finder the golden stores do not
// reach: degenerate runs, short periods, the 65 535-byte window edge,
// tiny inputs around the 4-byte minimum match and 8-byte compare word,
// length-extension boundaries, and small alphabets whose hash chains
// always hit the depth cap.
std::vector<LzCase> PinnedLzInputs() {
  Pcg32 rng(2010);
  const auto noise = [&](std::size_t n) {
    std::string s(n, '\0');
    for (char& c : s) c = static_cast<char>(rng());
    return s;
  };
  const auto periodic = [](std::string_view unit, std::size_t n) {
    std::string s;
    while (s.size() < n) s += unit;
    s.resize(n);
    return s;
  };
  std::vector<LzCase> in;
  for (std::size_t n = 1; n <= 12; ++n) {
    const std::string len = std::to_string(n);
    in.push_back({"len" + len + "-run", std::string(n, 'z')});
    in.push_back({"len" + len + "-ab", periodic("ab", n)});
    in.push_back({"len" + len + "-noise", noise(n)});
  }
  // One-byte runs: a run of n is one literal and a distance-1 match of
  // n - 1, so these straddle the match nibble (n = 20) and its first
  // 255-byte extension (n = 275).
  for (std::size_t n : {13, 17, 18, 19, 20, 21, 274, 275, 276, 530, 531,
                        4096, 65536, 200000}) {
    in.push_back({"run" + std::to_string(n), std::string(n, 'a')});
  }
  // Literal-only streams across the literal nibble and its extension.
  for (std::size_t n : {14, 15, 16, 269, 270, 271, 525, 526, 70000}) {
    in.push_back({"noise" + std::to_string(n), noise(n)});
  }
  // Period-2..8 repeats after a noise prefix, plus the same with one
  // byte broken mid-stream so the finder must restart and choose again.
  for (std::size_t p = 2; p <= 8; ++p) {
    const std::string unit = noise(p);
    const std::string body = noise(37) + periodic(unit, 3000 + p);
    in.push_back({"period" + std::to_string(p), body});
    std::string broken = body;
    broken[broken.size() / 2] ^= 0x5A;
    in.push_back({"period" + std::to_string(p) + "-broken", broken});
  }
  // A 64-byte block repeated at distance 65 534 / 65 535 (in window) and
  // 65 536 (one past it), with and without a nearer, shorter candidate.
  const std::string block = noise(64);
  for (std::size_t dist : {65534, 65535, 65536}) {
    const std::string gap = noise(dist - block.size());
    in.push_back({"window" + std::to_string(dist),
                  block + gap + block + noise(16)});
    std::string near = gap;
    near.replace(near.size() - 100, 40, block.substr(0, 40));
    in.push_back({"window" + std::to_string(dist) + "-near",
                  block + near + block + noise(16)});
  }
  // Small alphabets: every hash chain is long, so the depth cap, the
  // quick reject and the first-longest tie-break decide every match.
  for (const std::string_view alphabet : {"ab", "acgt", "0123456789abcdef"}) {
    std::string s(30000, '\0');
    for (char& c : s) {
      const auto size = static_cast<std::uint32_t>(alphabet.size());
      c = alphabet[rng.UniformBelow(size)];
    }
    in.push_back({"alphabet" + std::to_string(alphabet.size()), s});
  }
  return in;
}

struct LzPin {
  const char* name;
  std::size_t comp_size;
  std::uint32_t crc;
};

// LzCompress output size and CRC-32 per input, captured from the
// byte-at-a-time reference compressor. Any change here is a format
// change: every stored block would re-encode differently.
constexpr LzPin kLzPins[] = {
    {"len1-run", 2, 0xBBCB988Cu},
    {"len1-ab", 2, 0x31AE5160u},
    {"len1-noise", 2, 0x9EA44A2Cu},
    {"len2-run", 3, 0xA20C96ACu},
    {"len2-ab", 3, 0x1856C560u},
    {"len2-noise", 3, 0xAE523540u},
    {"len3-run", 4, 0xED09C365u},
    {"len3-ab", 4, 0xF504DE41u},
    {"len3-noise", 4, 0xFBF7257Au},
    {"len4-run", 5, 0xA6350B74u},
    {"len4-ab", 5, 0x89427AEEu},
    {"len4-noise", 5, 0x5F5F8951u},
    {"len5-run", 5, 0xA3824A50u},
    {"len5-ab", 6, 0xAC5A31DDu},
    {"len5-noise", 6, 0x577984F6u},
    {"len6-run", 5, 0x9EE263E0u},
    {"len6-ab", 6, 0x8097118Eu},
    {"len6-noise", 7, 0x1CD4FDD9u},
    {"len7-run", 5, 0xD9421930u},
    {"len7-ab", 6, 0x4BCBC22Bu},
    {"len7-noise", 8, 0xDDB2B262u},
    {"len8-run", 5, 0xE4223080u},
    {"len8-ab", 6, 0xCD5FB085u},
    {"len8-noise", 9, 0x317006D7u},
    {"len9-run", 5, 0x5602EC90u},
    {"len9-ab", 6, 0x06036320u},
    {"len9-noise", 10, 0x4F805D67u},
    {"len10-run", 5, 0x6B62C520u},
    {"len10-ab", 6, 0x1B065398u},
    {"len10-noise", 11, 0x15279B77u},
    {"len11-run", 5, 0x2CC2BFF0u},
    {"len11-ab", 6, 0xD05A803Du},
    {"len11-noise", 12, 0x4B49B2ABu},
    {"len12-run", 5, 0x11A29640u},
    {"len12-ab", 6, 0x56CEF293u},
    {"len12-noise", 13, 0xE1AB2376u},
    {"run13", 5, 0x14EAD10Fu},
    {"run17", 5, 0xE16A77CFu},
    {"run18", 5, 0xDC0A5E7Fu},
    {"run19", 5, 0x9BAA24AFu},
    {"run20", 6, 0x5FAC2875u},
    {"run21", 6, 0x46B71934u},
    {"run274", 6, 0xD593E446u},
    {"run275", 7, 0x4CAAF2FBu},
    {"run276", 7, 0x55B1C3BAu},
    {"run530", 8, 0x46B95A06u},
    {"run531", 8, 0x5FA26B47u},
    {"run4096", 21, 0x59A882C2u},
    {"run65536", 262, 0xF5070662u},
    {"run200000", 790, 0x69F4155Bu},
    {"noise14", 15, 0x0A4A3B66u},
    {"noise15", 17, 0x7D230882u},
    {"noise16", 18, 0x6FBF6BD1u},
    {"noise269", 271, 0xA3B393D0u},
    {"noise270", 273, 0x4A7AF85Cu},
    {"noise271", 274, 0x451505C5u},
    {"noise525", 529, 0xB9210D29u},
    {"noise526", 530, 0x42C7D6CCu},
    {"noise70000", 70275, 0x4799A49Eu},
    {"period2", 56, 0x44F1868Fu},
    {"period2-broken", 64, 0x4DB5E4D1u},
    {"period3", 57, 0x2ABB5043u},
    {"period3-broken", 65, 0x6D0C604Eu},
    {"period4", 58, 0x75DCF46Au},
    {"period4-broken", 66, 0x1F6E5B3Au},
    {"period5", 59, 0xF82EB246u},
    {"period5-broken", 68, 0x7C537D50u},
    {"period6", 60, 0xDFA85388u},
    {"period6-broken", 68, 0xF44E618Fu},
    {"period7", 61, 0x0E2438FFu},
    {"period7-broken", 69, 0x66F722A8u},
    {"period8", 62, 0xA93E3C60u},
    {"period8-broken", 69, 0xEDAB3EB9u},
    {"window65534", 65813, 0x8BB89246u},
    {"window65534-near", 65778, 0x807D7AE3u},
    {"window65535", 65814, 0x40F88808u},
    {"window65535-near", 65778, 0xBCCA65DEu},
    {"window65536", 65874, 0x9EE7A0B0u},
    {"window65536-near", 65803, 0x3942C4D8u},
    {"alphabet2", 9500, 0xF1DA717Cu},
    {"alphabet4", 14259, 0x31924041u},
    {"alphabet16", 26644, 0x330E4E4Du},
};

TEST(Lz, PinnedOutputCrcs) {
  const std::vector<LzCase> inputs = PinnedLzInputs();
  ASSERT_EQ(inputs.size(), std::size(kLzPins));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const LzCase& c = inputs[i];
    const std::string comp = LzCompress(c.raw);
    EXPECT_EQ(c.name, kLzPins[i].name);
    EXPECT_EQ(comp.size(), kLzPins[i].comp_size) << c.name;
    EXPECT_EQ(Crc32(comp), kLzPins[i].crc) << c.name;
    std::string back;
    ASSERT_EQ(LzDecompress(comp, c.raw.size(), &back), "") << c.name;
    EXPECT_EQ(back, c.raw) << c.name;
  }
}

// ------------------------------------------------- golden block pins --

struct GoldenBlock {
  std::string stored;  // payload bytes as the writer put them on disk
  std::string raw;     // columnar payload (== stored when stored raw)
  std::uint64_t n_events = 0;
};

struct GoldenStore {
  std::string bytes;  // the salvaged, finalized store file
  std::vector<GoldenBlock> blocks;
};

// The committed kill-matrix stores, salvaged through RecoverStoreFile
// (their footers never landed) and split into their stored blocks.
std::vector<GoldenStore> GoldenStores(const std::string& tag) {
  std::vector<GoldenStore> stores;
  for (const char* name : {"soak_kill_block", "soak_kill_boundary"}) {
    const std::string path = TempPath((tag + "_" + name + ".ancs").c_str());
    RecoverInfo info;
    EXPECT_EQ(RecoverStoreFile(std::string(ANC_GOLDEN_DIR) + "/" + name +
                                   ".ancs",
                               path, &info),
              "")
        << name;
    GoldenStore store;
    store.bytes = Slurp(path);
    StoreReader reader;
    EXPECT_EQ(reader.Open(path), "") << name;
    for (const BlockMeta& meta : reader.blocks()) {
      GoldenBlock block;
      block.stored =
          store.bytes.substr(static_cast<std::size_t>(meta.offset),
                             static_cast<std::size_t>(meta.comp_len));
      block.n_events = meta.n_events;
      if (meta.comp_len == meta.raw_len) {
        block.raw = block.stored;
      } else {
        EXPECT_EQ(LzDecompress(block.stored,
                               static_cast<std::size_t>(meta.raw_len),
                               &block.raw),
                  "")
            << name;
      }
      store.blocks.push_back(std::move(block));
    }
    std::remove(path.c_str());
    stores.push_back(std::move(store));
  }
  return stores;
}

// What the writer stores for a block of `events`: the columnar payload,
// LZ-compressed unless that does not shrink it.
std::string StoredPayload(const std::vector<trace::TraceEvent>& events) {
  const std::string raw = EncodeBlockPayload(events);
  const std::string comp = LzCompress(raw);
  return comp.size() < raw.size() ? comp : raw;
}

TEST(StoreCodec, GoldenBlocksReencodeByteIdentical) {
  std::size_t blocks = 0, compressed = 0;
  for (const GoldenStore& store : GoldenStores("anc_codec_pin")) {
    for (const GoldenBlock& block : store.blocks) {
      std::vector<trace::TraceEvent> events;
      ASSERT_EQ(DecodeBlockPayload(block.raw, block.n_events, &events), "");
      EXPECT_EQ(EncodeBlockPayload(events), block.raw) << "block " << blocks;
      EXPECT_EQ(StoredPayload(events), block.stored) << "block " << blocks;
      ++blocks;
      if (block.stored.size() < block.raw.size()) ++compressed;
    }
  }
  EXPECT_EQ(blocks, 11u);  // 5 + 6 salvaged 512-event blocks
  EXPECT_EQ(compressed, blocks);
}

// ------------------------------------------------ malformed payloads --

TEST(StoreCodec, RejectsEventCountBeyondPayloadBytes) {
  // A count up to the payload's own size used to pass the plausibility
  // check and size the event vector before the columns ran dry. Every
  // event needs at least 4 bytes (kind byte plus reader, slot and frame
  // varints), so this count is rejected before anything is allocated.
  constexpr std::uint64_t kClaimed = 100000;
  std::string raw;
  ser::PutVarint(raw, kClaimed);
  raw.append(kClaimed, static_cast<char>(trace::EventKind::kRecordOpen));
  std::vector<trace::TraceEvent> out;
  EXPECT_NE(DecodeBlockPayload(raw, kClaimed, &out), "");
  EXPECT_TRUE(out.empty());
  EXPECT_LT(out.capacity(), kClaimed);

  // The empty block (a checkpoint's pending buffer) still decodes.
  EXPECT_EQ(DecodeBlockPayload(EncodeBlockPayload({}), 0, &out), "");
  EXPECT_TRUE(out.empty());
}

// --------------------------------------------------- mutation sweep --

// The LZ decoder as first written (bounds-checked push_back, byte-at-a-
// time match copy): the oracle the production decoder must agree with,
// error for error and byte for byte, on every mutated stream.
std::string ReferenceLzDecompress(std::string_view comp, std::size_t raw_len,
                                  std::string* out) {
  out->clear();
  if (comp.empty()) return raw_len == 0 ? "" : "empty stream";
  std::size_t i = 0;
  const auto read_len = [&](std::size_t base, std::size_t* v) {
    *v = base;
    if (base < 15) return true;
    for (;;) {
      if (i >= comp.size()) return false;
      const auto b = static_cast<std::uint8_t>(comp[i++]);
      *v += b;
      if (b < 255) return true;
    }
  };
  while (i < comp.size()) {
    const auto token = static_cast<std::uint8_t>(comp[i++]);
    std::size_t lit = 0;
    if (!read_len(token >> 4, &lit) || i + lit > comp.size() ||
        out->size() + lit > raw_len) {
      return "bad literals";
    }
    out->append(comp.substr(i, lit));
    i += lit;
    if (i == comp.size()) break;
    if (i + 2 > comp.size()) return "bad offset";
    const std::size_t dist =
        static_cast<std::uint8_t>(comp[i]) |
        static_cast<std::size_t>(static_cast<std::uint8_t>(comp[i + 1])) << 8;
    i += 2;
    if (dist == 0 || dist > out->size()) return "bad offset";
    std::size_t match = 0;
    if (!read_len(token & 0x0F, &match)) return "bad match length";
    match += 4;
    if (out->size() + match > raw_len) return "bad match length";
    const std::size_t src = out->size() - dist;
    for (std::size_t k = 0; k < match; ++k) out->push_back((*out)[src + k]);
  }
  return out->size() == raw_len ? "" : "short output";
}

// Uniform in [0, n); 0 when n == 0.
std::size_t Below(Pcg32& rng, std::size_t n) {
  return n == 0 ? 0 : rng.UniformBelow(static_cast<std::uint32_t>(n));
}

// One Pcg32-chosen mutation of `in`: flip 1-3 bytes, truncate, or splice
// a run of donor bytes over a range (which may change the length).
std::string Mutate(const std::string& in,
                   const std::vector<std::string>& donors, Pcg32& rng) {
  std::string s = in;
  switch (rng.UniformBelow(3)) {
    case 0: {
      const std::size_t flips = 1 + Below(rng, 3);
      for (std::size_t k = 0; k < flips && !s.empty(); ++k) {
        s[Below(rng, s.size())] ^= static_cast<char>(1 + Below(rng, 255));
      }
      break;
    }
    case 1:
      s.resize(Below(rng, s.size()));
      break;
    default: {
      const std::string& donor = donors[Below(rng, donors.size())];
      const std::size_t from = Below(rng, donor.size());
      const std::string piece = donor.substr(from, 1 + Below(rng, 64));
      const std::size_t at = Below(rng, s.size() + 1);
      s.replace(at, Below(rng, 65), piece);
      break;
    }
  }
  return s;
}

TEST(StoreMutation, LzDecompressAgreesWithReferenceOrFails) {
  std::vector<std::string> streams, donors;
  std::vector<std::size_t> raw_lens;
  for (const GoldenStore& store : GoldenStores("anc_mut_lz")) {
    for (const GoldenBlock& block : store.blocks) {
      streams.push_back(block.stored);
      raw_lens.push_back(block.raw.size());
      donors.push_back(block.stored);
    }
  }
  ASSERT_FALSE(streams.empty());
  Pcg32 rng(151);
  std::size_t decoded = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t pick = Below(rng, streams.size());
    const std::string bad = Mutate(streams[pick], donors, rng);
    std::string out, ref;
    const std::string err = LzDecompress(bad, raw_lens[pick], &out);
    const std::string ref_err =
        ReferenceLzDecompress(bad, raw_lens[pick], &ref);
    ASSERT_EQ(err.empty(), ref_err.empty())
        << "trial " << trial << ": " << err << " / " << ref_err;
    if (!err.empty()) continue;
    // An LZ parse is not canonical (a literal flip can decode cleanly and
    // recompress to other tokens), so the check is the oracle's bytes and
    // a round trip of what came out.
    ++decoded;
    ASSERT_EQ(out, ref) << "trial " << trial;
    std::string back;
    ASSERT_EQ(LzDecompress(LzCompress(out), out.size(), &back), "");
    ASSERT_EQ(back, out) << "trial " << trial;
  }
  EXPECT_GT(decoded, 0u);  // some flips land in literals and still decode
}

// ------------------------------------------------ LZ wide-copy edges --

// One token sequence: `lits` literals, then (when match > 0) a match of
// `match` bytes at distance `dist`, lengths extended past nibble 15.
std::string Sequence(std::string_view lits, std::size_t match,
                     std::size_t dist) {
  const auto ext = [](std::string& out, std::size_t v) {
    for (; v >= 255; v -= 255) out.push_back(static_cast<char>(0xFF));
    out.push_back(static_cast<char>(v));
  };
  const std::size_t lit_nibble = std::min<std::size_t>(lits.size(), 15);
  const std::size_t code = match > 0 ? match - 4 : 0;
  const std::size_t match_nibble = std::min<std::size_t>(code, 15);
  std::string out(1, static_cast<char>(lit_nibble << 4 | match_nibble));
  if (lit_nibble == 15) ext(out, lits.size() - 15);
  out.append(lits);
  if (match == 0) return out;
  out.push_back(static_cast<char>(dist & 0xFF));
  out.push_back(static_cast<char>(dist >> 8));
  if (match_nibble == 15) ext(out, code - 15);
  return out;
}

// LzDecompress into a buffer that last held a longer block, checked
// against the reference: same verdict, same bytes, no stale bytes.
void ExpectAgreesWithReference(const std::string& comp, std::size_t raw_len,
                               const std::string& what) {
  std::string out(raw_len + 4096, '\xAA');
  std::string ref;
  const std::string err = LzDecompress(comp, raw_len, &out);
  const std::string ref_err = ReferenceLzDecompress(comp, raw_len, &ref);
  ASSERT_EQ(err.empty(), ref_err.empty()) << what << ": " << err;
  if (err.empty()) {
    ASSERT_EQ(out, ref) << what;
  } else {
    ASSERT_TRUE(out.empty()) << what;
  }
}

TEST(Lz, WideCopiesAgreeWithReferenceAtTheEdges) {
  // Every pinned input, decoded over a dirty, longer buffer.
  for (const LzCase& c : PinnedLzInputs()) {
    ExpectAgreesWithReference(LzCompress(c.raw), c.raw.size(), c.name);
  }
  Pcg32 rng(154);
  const auto noise = [&](std::size_t n) {
    std::string s(n, '\0');
    for (char& ch : s) ch = static_cast<char>(rng());
    return s;
  };
  // A match at each distance 1-20 (overlapping below its length, under
  // and over both copy widths) of lengths around the 8- and 16-byte
  // words, ending exactly at raw_len or followed by literal runs on
  // either side of the 16-byte literal copy; the declared size one short
  // and one long must fail both decoders alike.
  for (std::size_t dist = 1; dist <= 20; ++dist) {
    for (std::size_t match :
         {4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 18u, 19u, 20u, 24u, 33u, 300u}) {
      for (std::size_t tail : {0u, 1u, 15u, 16u, 17u, 40u}) {
        const std::string head = noise(dist + rng.UniformBelow(3));
        std::string comp = Sequence(head, match, dist);
        if (tail > 0) comp += Sequence(noise(tail), 0, 0);
        const std::size_t raw_len = head.size() + match + tail;
        const std::string what = "dist " + std::to_string(dist) + " match " +
                                 std::to_string(match) + " tail " +
                                 std::to_string(tail);
        ExpectAgreesWithReference(comp, raw_len, what);
        ExpectAgreesWithReference(comp, raw_len - 1, what + " short");
        ExpectAgreesWithReference(comp, raw_len + 1, what + " long");
      }
    }
  }
  // Literal runs of every length 0-40 that end the stream exactly, after
  // a match, so the last one is copied with fewer than 16 stream bytes
  // left.
  for (std::size_t lit = 0; lit <= 40; ++lit) {
    const std::string comp =
        Sequence(noise(8), 12, 8) + Sequence(noise(lit), 0, 0);
    ExpectAgreesWithReference(comp, 8 + 12 + lit,
                              "final literals " + std::to_string(lit));
  }
}

// A payload of more events than any golden block: the golden blocks'
// events back to back, so a vector that held it is longer than every
// decode after it.
struct LargeBlock {
  std::string raw;
  std::uint64_t n_events = 0;
};

LargeBlock LargerThanAnyGolden(const std::vector<GoldenStore>& stores) {
  std::vector<trace::TraceEvent> all, events;
  for (const GoldenStore& store : stores) {
    for (const GoldenBlock& block : store.blocks) {
      EXPECT_EQ(DecodeBlockPayload(block.raw, block.n_events, &events), "");
      all.insert(all.end(), events.begin(), events.end());
    }
  }
  return {EncodeBlockPayload(all), all.size()};
}

TEST(StoreMutation, DecodeBlockPayloadFailsOrReencodes) {
  const std::vector<GoldenStore> stores = GoldenStores("anc_mut_payload");
  std::vector<std::string> payloads;
  std::vector<std::uint64_t> counts;
  for (const GoldenStore& store : stores) {
    for (const GoldenBlock& block : store.blocks) {
      payloads.push_back(block.raw);
      counts.push_back(block.n_events);
    }
  }
  ASSERT_FALSE(payloads.empty());
  const LargeBlock large = LargerThanAnyGolden(stores);
  Pcg32 rng(152);
  // Its own stream, so the mutations are the same as without the carry.
  Pcg32 carry_rng(1520);
  // One vector across all trials, as a reader reuses its events; now and
  // then it still holds the large block when a decode starts.
  std::vector<trace::TraceEvent> carried;
  std::size_t decoded = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t pick = Below(rng, payloads.size());
    const std::string bad = Mutate(payloads[pick], payloads, rng);
    if (carry_rng.UniformBelow(4) == 0) {
      ASSERT_EQ(DecodeBlockPayload(large.raw, large.n_events, &carried), "");
    }
    std::vector<trace::TraceEvent> fresh;
    const std::string err = DecodeBlockPayload(bad, counts[pick], &fresh);
    ASSERT_EQ(DecodeBlockPayload(bad, counts[pick], &carried), err)
        << "trial " << trial;
    ASSERT_EQ(carried, fresh) << "trial " << trial;  // both empty on error
    if (!err.empty()) continue;
    ++decoded;
    ASSERT_EQ(EncodeBlockPayload(fresh), bad) << "trial " << trial;
  }
  EXPECT_GT(decoded, 0u);  // value flips that keep every column in range
}

TEST(StoreMutation, StoreReaderFailsOrReencodes) {
  const std::vector<GoldenStore> stores = GoldenStores("anc_mut_file");
  std::vector<std::string> donors;
  for (const GoldenStore& store : stores) donors.push_back(store.bytes);
  const LargeBlock large = LargerThanAnyGolden(stores);
  const std::string path = TempPath("anc_mut_file.ancs");
  Pcg32 rng(153);
  Pcg32 carry_rng(1530);  // as in DecodeBlockPayloadFailsOrReencodes
  std::vector<trace::TraceEvent> carried;
  std::size_t opened = 0, recovered = 0, windowed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const GoldenStore& store = stores[Below(rng, stores.size())];
    const std::string bad = Mutate(store.bytes, donors, rng);
    Spit(path, bad);
    StoreReader reader;
    if (!reader.Open(path).empty()) continue;
    ++opened;
    // Each block through a fresh vector first: the outcome to match.
    const std::size_t n_blocks = reader.blocks().size();
    std::vector<std::string> errs(n_blocks);
    std::vector<std::vector<trace::TraceEvent>> want(n_blocks);
    std::size_t good = n_blocks;  // a block that reads cleanly, if any
    for (std::size_t b = 0; b < n_blocks; ++b) {
      errs[b] = reader.ReadBlock(b, &want[b]);
      if (!errs[b].empty()) continue;
      if (good == n_blocks) good = b;
      // A block the reader accepts is exactly what the writer would
      // store for its events, at the place the index points to.
      const BlockMeta& meta = reader.blocks()[b];
      ASSERT_EQ(StoredPayload(want[b]),
                bad.substr(static_cast<std::size_t>(meta.offset),
                           static_cast<std::size_t>(meta.comp_len)))
          << "trial " << trial << " block " << b;
    }
    // Then through the carried vector, which may still hold a larger
    // block; a failed read must leave nothing that spoils the next one.
    for (std::size_t b = 0; b < n_blocks; ++b) {
      if (carry_rng.UniformBelow(4) == 0) {
        ASSERT_EQ(DecodeBlockPayload(large.raw, large.n_events, &carried),
                  "");
      }
      ASSERT_EQ(reader.ReadBlock(b, &carried), errs[b])
          << "trial " << trial << " block " << b;
      ASSERT_EQ(carried, want[b]) << "trial " << trial << " block " << b;
      if (errs[b].empty() || good == n_blocks) continue;
      ASSERT_EQ(reader.ReadBlock(good, &carried), "") << "trial " << trial;
      ASSERT_EQ(carried, want[good]) << "trial " << trial;
      ++recovered;
    }
    // A window query fails exactly when a block it scans fails, however
    // few events it returns: with no upper bound it scans from the seek
    // target to the end of the run.
    for (std::size_t run = 0; run < reader.runs().size(); ++run) {
      const StoredRun& r = reader.runs()[run];
      if (r.n_blocks == 0) continue;
      const std::uint64_t lo =
          reader.blocks()[r.first_block + Below(carry_rng, r.n_blocks)]
              .min_frame;
      const std::size_t start = reader.FindBlockForFrame(run, lo);
      bool scans_bad_block = false;
      if (start != kNoBlock) {
        for (std::size_t b = start; b < r.first_block + r.n_blocks; ++b) {
          scans_bad_block |= !errs[b].empty();
        }
      }
      WindowSeed seed;
      const std::string err = QueryFrameWindow(
          reader, run, lo, ~std::uint64_t{0}, &carried, &seed);
      ASSERT_EQ(err.empty(), !scans_bad_block)
          << "trial " << trial << " run " << run << ": " << err;
      windowed += scans_bad_block;
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(opened, 0u);     // flips in block heads the footer never reads
  EXPECT_GT(recovered, 0u);  // a clean read right after a failed one
  EXPECT_GT(windowed, 0u);   // queries that had to fail
}

}  // namespace
}  // namespace anc::store
