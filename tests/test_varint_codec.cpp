// The shortest-form rule of ser::Reader, the one decoder of every stored
// format. A varint is accepted only in the form PutVarint writes it, so
// every accepted input re-encodes to the same bytes. Three malformed
// forms must fail like truncation: an overlong encoding (a zero final
// byte after a continuation), one carrying bits past 64 (a tenth byte
// above 1), and a truncated one. Each is checked on the Reader itself
// and in three places that read disk bytes through it: a store block
// column, a v1 trace event read through store::ReadStoreFile, and a
// checkpoint's protocol blob.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "blob_patch.h"
#include "common/serialize.h"
#include "core/factories.h"
#include "read_back.h"
#include "service/checkpoint.h"
#include "store/container.h"
#include "trace/binary.h"

namespace anc {
namespace {

const std::string kOverlongZero("\x80\x00", 2);
const std::string kPast64 = std::string(9, '\xff') + '\x02';
const std::string kMax64 = std::string(9, '\xff') + '\x01';  // 2^64 - 1

// `encoded` (one shortest-form varint) re-encoded one byte longer: the
// same value with a continuation bit on its last byte and a zero byte
// appended.
std::string Overlong(std::string encoded) {
  encoded.back() = static_cast<char>(encoded.back() | 0x80);
  return encoded + '\0';
}

std::string Varint(std::uint64_t v) {
  std::string out;
  ser::PutVarint(out, v);
  return out;
}

TEST(ShortestVarint, ReaderAcceptsOnlyTheWrittenForm) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{1} << 35, ~std::uint64_t{0}}) {
    const std::string encoded = Varint(v);
    ser::Reader r{encoded};
    EXPECT_EQ(r.Varint(), v);
    EXPECT_TRUE(r.ok && r.AtEnd()) << v;

    const std::string overlong = Overlong(encoded);
    if (overlong.size() <= 10) {
      ser::Reader bad{overlong};
      EXPECT_EQ(bad.Varint(), 0u);
      EXPECT_FALSE(bad.ok) << v;
    }
  }
  ser::Reader max{kMax64};
  EXPECT_EQ(max.Varint(), ~std::uint64_t{0});
  EXPECT_TRUE(max.ok);

  for (const std::string& bad :
       {kOverlongZero, kPast64, std::string("\x80"), std::string("\xff\xff"),
        std::string()}) {
    ser::Reader r{bad};
    EXPECT_EQ(r.Varint(), 0u);
    EXPECT_FALSE(r.ok);
  }
  // A length prefix goes through the same rule.
  const std::string prefixed = kOverlongZero + "x";
  ser::Reader bytes{prefixed};
  EXPECT_TRUE(bytes.Bytes().empty());
  EXPECT_FALSE(bytes.ok);
}

TEST(ShortestVarint, FixedWidthLittleEndian) {
  std::string out;
  ser::PutU32Le(out, 0x04030201u);
  ser::PutU64Le(out, 0x0c0b0a0908070605ull);
  ser::PutF64(out, -2.5);
  ASSERT_EQ(out.size(), 20u);
  EXPECT_EQ(out.substr(0, 12),
            "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c");
  ser::Reader r{out};
  EXPECT_EQ(r.U32Le(), 0x04030201u);
  EXPECT_EQ(r.U64Le(), 0x0c0b0a0908070605ull);
  EXPECT_EQ(r.F64(), -2.5);
  EXPECT_TRUE(r.ok && r.AtEnd());
  ser::Reader short_read{std::string_view(out).substr(0, 3)};
  EXPECT_EQ(short_read.U32Le(), 0u);
  EXPECT_FALSE(short_read.ok);
  EXPECT_TRUE(short_read.AtEnd());
}

// A one-event block payload whose slot column holds `slot` (the column
// stores zigzag deltas; 0x0a is slot 5).
std::string OneEventBlock(const std::string& slot) {
  std::string raw = Varint(1);
  raw += static_cast<char>(trace::EventKind::kRecordOpen);
  raw += Varint(0);  // reader
  raw += slot;
  raw += Varint(0);  // frame
  raw += Varint(0);  // record
  return raw;
}

TEST(ShortestVarint, StoreBlockColumnRejectsMalformedVarints) {
  std::vector<trace::TraceEvent> events;
  ASSERT_EQ(store::DecodeBlockPayload(OneEventBlock("\x0a"), 1, &events), "");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].slot, 5u);
  EXPECT_EQ(store::DecodeBlockPayload(OneEventBlock(kMax64), 1, &events), "");

  for (const std::string& slot : {Overlong("\x0a"), kOverlongZero, kPast64}) {
    EXPECT_NE(store::DecodeBlockPayload(OneEventBlock(slot), 1, &events), "");
    EXPECT_TRUE(events.empty());
  }
  // Truncated: the payload ends inside the slot varint.
  std::string torn = Varint(1);
  torn += static_cast<char>(trace::EventKind::kRecordOpen);
  torn += Varint(0);
  torn += "\x80";
  EXPECT_NE(store::DecodeBlockPayload(torn, 1, &events), "");
}

// A v1 trace file of one run holding one record-open event at `slot`.
std::string OneEventTrace(const std::string& slot, bool terminate = true) {
  std::string out(trace::kTraceMagic);
  out += Varint(trace::kTraceVersion);
  out += 'R';
  trace::PutRunHeader(out, trace::RunHeader{0, 1, 1, 1, "x"});
  out += static_cast<char>(trace::EventKind::kRecordOpen);
  out += Varint(0);  // reader
  out += slot;
  if (!terminate) return out;
  out += Varint(0);  // frame
  out += Varint(0);  // record
  out += '\0';       // end of run
  return out;
}

using testing_trace::ReadBack;

TEST(ShortestVarint, V1TraceEventRejectsMalformedVarints) {
  trace::TraceFile file;
  ASSERT_EQ(ReadBack(OneEventTrace(Varint(5)), &file), "");
  ASSERT_EQ(file.runs.size(), 1u);
  ASSERT_EQ(file.runs[0].events.size(), 1u);
  EXPECT_EQ(file.runs[0].events[0].slot, 5u);
  ASSERT_EQ(ReadBack(OneEventTrace(kMax64), &file), "");
  EXPECT_EQ(file.runs[0].events[0].slot, ~std::uint64_t{0});

  for (const std::string& slot :
       {Overlong(Varint(5)), kOverlongZero, kPast64}) {
    EXPECT_NE(ReadBack(OneEventTrace(slot), &file), "");
  }
  EXPECT_NE(ReadBack(OneEventTrace("\x80", /*terminate=*/false), &file),
            "");
}

TEST(ShortestVarint, CheckpointProtocolBlobRejectsMalformedVarints) {
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const sim::ProtocolFactory factory = core::MakeFcatFactory(fcat);
  service::ServiceConfig config;
  ASSERT_TRUE(service::LookupServiceProfile("smoke", &config));
  service::SoakOptions options;
  options.n_initial = 20;
  options.runs = 1;
  options.base_seed = 11;
  const std::string ckpt_path = testing::TempDir() + "/anc_varint.ckpt";
  service::ResumableOptions kill_opts;
  kill_opts.checkpoint_every_epochs = 1;
  kill_opts.checkpoint_path = ckpt_path;
  kill_opts.abort_before_slot = 1100;
  bool aborted = false;
  (void)service::RunSoakResumable(factory, config, options, 0, nullptr,
                                  kill_opts, &aborted);
  ASSERT_TRUE(aborted);
  service::ServiceCheckpoint ckpt;
  ASSERT_EQ(service::ReadCheckpointFile(ckpt_path, &ckpt), "");
  std::remove(ckpt_path.c_str());

  // The blob's first varint: the length prefix of the phy's state.
  ser::Reader walk{ckpt.protocol_blob};
  const testing_blob::Field prefix = testing_blob::NextVarint(walk);
  ASSERT_TRUE(walk.ok);
  const std::string blob = ckpt.protocol_blob;
  const std::string encoded = blob.substr(prefix.pos, prefix.len);

  const std::string patched_path = testing::TempDir() + "/anc_varint_p.ckpt";
  const auto resume = [&](const std::string& protocol_blob) {
    service::ServiceCheckpoint patched = ckpt;
    patched.protocol_blob = protocol_blob;
    EXPECT_EQ(service::WriteCheckpointFile(patched_path, patched), "");
    service::SloReport report;
    const std::string err = service::ResumeSoak(
        factory, config, options, 0, patched_path, "", {}, {}, &report);
    std::remove(patched_path.c_str());
    return err;
  };
  ASSERT_EQ(resume(blob), "");

  const std::string rejected = "checkpoint: protocol state rejected";
  std::string overlong = blob;
  overlong.replace(prefix.pos, prefix.len, Overlong(encoded));
  EXPECT_EQ(resume(overlong), rejected);
  std::string past64 = blob;
  past64.replace(prefix.pos, prefix.len, kPast64);
  EXPECT_EQ(resume(past64), rejected);
  EXPECT_EQ(resume(blob.substr(0, prefix.pos) + "\x80"), rejected);
}

}  // namespace
}  // namespace anc
