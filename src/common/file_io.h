// Whole-file reads, shared by the trace store, its torn-tail recovery and
// the checkpoint readers.
#pragma once

#include <string>

namespace anc {

// Reads all of `path` into *out. Returns "" on success, else a message
// naming the path: "cannot open <path>", or "read error on <path>" when a
// read fails before end of file (so a failed read is never mistaken for a
// short file).
std::string ReadWholeFile(const std::string& path, std::string* out);

}  // namespace anc
