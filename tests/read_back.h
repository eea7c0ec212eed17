// Reads encoded trace bytes back through store::ReadStoreFile, the one
// ANCTRACE reader, by way of a temp file. The file is named after the
// running test: ctest runs every test as its own process, concurrently.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "store/container.h"

namespace anc::testing_trace {

inline std::string ReadBack(std::string_view bytes, trace::TraceFile* out) {
  const std::string path =
      ::testing::TempDir() + "/anc_read_back_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".trace";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return "cannot open " + path;
  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                     bytes.size();
  std::fclose(f);
  const std::string err =
      wrote ? store::ReadStoreFile(path, out) : "short write to " + path;
  std::remove(path.c_str());
  return err;
}

}  // namespace anc::testing_trace
