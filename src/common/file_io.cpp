#include "common/file_io.h"

#include <cstdio>

namespace anc {

std::string ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "cannot open " + path;
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    out->append(buf, n);
    if (n < sizeof buf) break;
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return "read error on " + path;
  return "";
}

std::string WriteWholeFile(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return "cannot open " + path + " for write";
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed ? "" : "short write to " + path;
}

}  // namespace anc
