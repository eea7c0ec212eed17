// Self-contained LZ77 byte compressor for trace-store blocks.
//
// Token format (LZ4-flavoured, not LZ4-compatible):
//   sequence := token[1] literal_ext* literals[L] (offset[2] match_ext*)?
//   token    := (L:4 | M:4) — L literals follow; a match of M+4 bytes at
//               distance `offset` (little-endian, 1..65535) follows the
//               literals. Nibble value 15 extends with 255-run bytes.
//   The final sequence of a block carries literals only (the stream ends
//   after them); minimum match length is 4.
//
// The compressor uses hash chains (depth-capped) with one-step lazy
// matching over a 64 KiB window. Output depends only on the input bytes —
// no timestamps, addresses or platform-dependent hashing — so compressed
// blocks are byte-stable across compilers and machines, which the
// golden-store CI jobs rely on. The hash, the newest-first chain order,
// the depth cap of 32 candidates, the first-longest tie-break and the
// lazy rule choose every match, so they are part of the format
// (DESIGN.md §7e); how the chains are stored, how bytes are compared and
// which hopeless candidates are skipped early are not. Chain positions
// are 32-bit: past 4 GiB of input the finder sees fewer candidates,
// never wrong ones.
//
// Decompression is fully bounds-checked and fails closed: any truncated
// token, out-of-range offset or length mismatch against `raw_len` returns
// an error and leaves *out empty.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace anc::store {

// Compresses `raw`. The result never exceeds raw.size() + raw.size()/255
// + 16; callers store the input uncompressed when that is not a win.
std::string LzCompress(std::string_view raw);

// Decompresses `comp` into exactly `raw_len` bytes. Returns "" on
// success, else a human-readable error ("truncated literals at ...").
std::string LzDecompress(std::string_view comp, std::size_t raw_len,
                         std::string* out);

}  // namespace anc::store
