// Checkpoint-blob patching for restore-validation tests: locate one
// varint of a real SaveState blob by walking its layout, then replace it
// with another value (re-encoded, so the blob may change length).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/serialize.h"

namespace anc::testing_blob {

// One varint of a checkpoint blob: its offset and encoded length.
struct Field {
  std::size_t pos = 0;
  std::size_t len = 0;
};

inline Field NextVarint(ser::Reader& r) {
  const std::size_t pos = r.pos;
  r.Varint();
  return {pos, r.pos - pos};
}

inline std::string Patch(std::string blob, Field f, std::uint64_t value) {
  std::string varint;
  ser::PutVarint(varint, value);
  return blob.replace(f.pos, f.len, varint);
}

inline std::uint64_t ValueAt(std::string_view blob, Field f) {
  ser::Reader r{blob.substr(f.pos, f.len)};
  return r.Varint();
}

}  // namespace anc::testing_blob
