#include "service/checkpoint.h"

#include <cstdio>
#include <optional>
#include <utility>

#include <unistd.h>

#include "common/file_io.h"
#include "common/serialize.h"
#include "store/crc32.h"

namespace anc::service {
namespace {

// Atomic durable write shared by checkpoint and .slo result files: the
// pieces land in "<path>.tmp" in order, are fsynced, then renamed.
std::string AtomicWriteFile(const std::string& path,
                            const ser::Pieces& pieces) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return "cannot open " + tmp;
  bool wrote = true;
  pieces.ForEach([&](std::string_view piece) {
    wrote = wrote &&
            std::fwrite(piece.data(), 1, piece.size(), f) == piece.size();
  });
  const bool flushed = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote || !flushed) {
    std::remove(tmp.c_str());
    return "short write to " + tmp;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return "rename to " + path + " failed";
  }
  return "";
}

// Appends the CRC-32 of every byte in `pieces` so far, little-endian:
// the trailer of checkpoint and .slo files.
void PutCrcTrailer(ser::Pieces& pieces) {
  std::uint32_t crc = 0;
  pieces.ForEach(
      [&crc](std::string_view piece) { crc = store::Crc32(piece, crc); });
  ser::PutU32Le(pieces.bytes(), crc);
}

// The bytes before a CRC trailer that matches them, or nullopt.
// `bytes` holds at least the 4-byte trailer.
std::optional<std::string_view> CrcCheckedBody(std::string_view bytes) {
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  ser::Reader trailer{bytes.substr(body.size())};
  if (store::Crc32(body) != trailer.U32Le()) return std::nullopt;
  return body;
}

// The fields before the blobs, shared by the encoder and the file writer.
void PutCheckpointHead(std::string& out, const ServiceCheckpoint& ckpt) {
  out.append(kCheckpointMagic);
  ser::PutVarint(out, ckpt.version);
  ser::PutVarint(out, ckpt.run_index);
  ser::PutVarint(out, ckpt.base_seed);
  ser::PutVarint(out, ckpt.n_initial);
  ser::PutVarint(out, ckpt.max_slots);
  ser::PutBytes(out, ckpt.service_name);
  ser::PutVarint(out, ckpt.slot);
}

constexpr std::string_view kSloMagic = "ANCSLO01";

}  // namespace

std::string EncodeCheckpoint(const ServiceCheckpoint& ckpt) {
  std::string out;
  PutCheckpointHead(out, ckpt);
  ser::PutBytes(out, ckpt.service_blob);
  ser::PutBytes(out, ckpt.protocol_blob);
  ser::PutBytes(out, ckpt.writer_blob);
  ser::PutU32Le(out, store::Crc32(out));
  return out;
}

std::string DecodeCheckpoint(std::string_view bytes, ServiceCheckpoint* out) {
  if (bytes.size() < kCheckpointMagic.size() + 4) {
    return "checkpoint: file too short";
  }
  if (bytes.substr(0, kCheckpointMagic.size()) != kCheckpointMagic) {
    return "checkpoint: bad magic (not an ANCCKPT file)";
  }
  const auto body = CrcCheckedBody(bytes);
  if (!body) return "checkpoint: checksum mismatch (torn or corrupt)";
  ser::Reader r{body->substr(kCheckpointMagic.size())};
  ServiceCheckpoint ckpt;
  ckpt.version = r.Varint();
  if (r.ok && (ckpt.version < kCheckpointVersionMin ||
               ckpt.version > kCheckpointVersion)) {
    return "checkpoint: unsupported version";
  }
  ckpt.run_index = r.Varint();
  ckpt.base_seed = r.Varint();
  ckpt.n_initial = r.Varint();
  ckpt.max_slots = r.Varint();
  ckpt.service_name = std::string(r.Bytes());
  ckpt.slot = r.Varint();
  ckpt.service_blob = std::string(r.Bytes());
  ckpt.protocol_blob = std::string(r.Bytes());
  ckpt.writer_blob = std::string(r.Bytes());
  if (!r.ok || !r.AtEnd()) return "checkpoint: truncated body";
  if (out != nullptr) *out = std::move(ckpt);
  return "";
}

std::string WriteCheckpointFile(const std::string& path,
                                const ServiceCheckpoint& ckpt) {
  // EncodeCheckpoint's bytes, written from the blobs in place.
  ser::Pieces pieces;
  PutCheckpointHead(pieces.bytes(), ckpt);
  for (const std::string* blob :
       {&ckpt.service_blob, &ckpt.protocol_blob, &ckpt.writer_blob}) {
    ser::PutVarint(pieces.bytes(), blob->size());
    pieces.AddView(*blob);
  }
  PutCrcTrailer(pieces);
  const std::string err = AtomicWriteFile(path, pieces);
  return err.empty() ? "" : "checkpoint: " + err;
}

std::string ReadCheckpointFile(const std::string& path,
                               ServiceCheckpoint* out) {
  std::string bytes;
  const std::string err = ReadWholeFile(path, &bytes);
  if (!err.empty()) return "checkpoint: " + err;
  return DecodeCheckpoint(bytes, out);
}

std::string WriteSloReportFile(const std::string& path,
                               const SloReport& report) {
  ser::Pieces pieces;
  pieces.bytes().append(kSloMagic);
  PutSloReport(pieces.bytes(), report);
  PutCrcTrailer(pieces);
  const std::string err = AtomicWriteFile(path, pieces);
  return err.empty() ? "" : "slo: " + err;
}

std::string ReadSloReportFile(const std::string& path, SloReport* out) {
  std::string bytes;
  const std::string read_err = ReadWholeFile(path, &bytes);
  if (!read_err.empty()) return "slo: " + read_err;
  if (bytes.size() < kSloMagic.size() + 4 ||
      std::string_view(bytes).substr(0, kSloMagic.size()) != kSloMagic) {
    return "slo: not a result file";
  }
  const auto body = CrcCheckedBody(bytes);
  if (!body) return "slo: checksum mismatch";
  ser::Reader r{body->substr(kSloMagic.size())};
  SloReport report;
  if (!ReadSloReport(r, report) || !r.AtEnd()) return "slo: truncated body";
  if (out != nullptr) *out = report;
  return "";
}

}  // namespace anc::service
