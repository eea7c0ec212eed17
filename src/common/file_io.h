// Whole-file reads and writes, shared by the trace store, its torn-tail
// recovery, the checkpoint readers, the tools and the tests.
#pragma once

#include <string>
#include <string_view>

namespace anc {

// Reads all of `path` into *out. Returns "" on success, else a message
// naming the path: "cannot open <path>", or "read error on <path>" when a
// read fails before end of file (so a failed read is never mistaken for a
// short file).
std::string ReadWholeFile(const std::string& path, std::string* out);

// Replaces `path` with exactly `bytes` (truncating). Returns "" on
// success, else "cannot open <path> for write" or "short write to <path>"
// (a failed flush on close counts as a short write).
std::string WriteWholeFile(const std::string& path, std::string_view bytes);

}  // namespace anc
