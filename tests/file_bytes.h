// Whole-file helpers for tests: read or replace a file's bytes, failing
// the running test when the read or write does.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/file_io.h"

namespace anc::testing_files {

inline std::string Slurp(const std::string& path) {
  std::string bytes;
  EXPECT_EQ(ReadWholeFile(path, &bytes), "");
  return bytes;
}

inline void Spit(const std::string& path, std::string_view bytes) {
  ASSERT_EQ(WriteWholeFile(path, bytes), "");
}

}  // namespace anc::testing_files
