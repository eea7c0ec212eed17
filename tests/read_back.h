// Reads traces back through store::ReadStoreFile, the one reader of both
// ANCTRACE and ANCSTORE files.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "common/file_io.h"
#include "store/container.h"
#include "trace/binary.h"

namespace anc::testing_trace {

// Decodes encoded trace bytes by way of a temp file. The file is named
// after the running test: ctest runs every test as its own process,
// concurrently.
inline std::string ReadBack(std::string_view bytes, trace::TraceFile* out) {
  const std::string path =
      ::testing::TempDir() + "/anc_read_back_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".trace";
  std::string err = WriteWholeFile(path, bytes);
  if (err.empty()) err = store::ReadStoreFile(path, out);
  std::remove(path.c_str());
  return err;
}

// The v1 encoding of the committed golden store tests/golden/<name>.ancs:
// what an in-process recording encodes to when it matches the golden.
inline std::string GoldenV1(const std::string& name) {
  trace::TraceFile file;
  EXPECT_EQ(store::ReadStoreFile(
                std::string(ANC_GOLDEN_DIR) + "/" + name + ".ancs", &file),
            "");
  return file.runs.empty() ? "" : trace::EncodeTrace(file);
}

}  // namespace anc::testing_trace
