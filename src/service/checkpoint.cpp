#include "service/checkpoint.h"

#include <array>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <optional>
#include <utility>

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/file_io.h"
#include "common/serialize.h"
#include "store/crc32.h"

namespace anc::service {
namespace {

// Writes iov[0, n) in full, resuming after a short write; false on error.
bool WriteVectors(int fd, iovec* iov, int n) {
  while (n > 0) {
    const ssize_t wrote = ::writev(fd, iov, n);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    auto left = static_cast<std::size_t>(wrote);
    for (; n > 0 && left >= iov->iov_len; ++iov, --n) left -= iov->iov_len;
    if (n > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return true;
}

// Writes every non-empty piece to `fd` in order, up to IOV_MAX of them
// per writev call.
bool WritePieces(int fd, const ser::Pieces& pieces) {
  std::array<iovec, IOV_MAX> batch;
  int n = 0;
  bool ok = true;
  pieces.ForEach([&](std::string_view piece) {
    if (!ok || piece.empty()) return;
    batch[n++] = {const_cast<char*>(piece.data()), piece.size()};
    if (n == IOV_MAX) {
      ok = WriteVectors(fd, batch.data(), n);
      n = 0;
    }
  });
  return ok && WriteVectors(fd, batch.data(), n);
}

// Fsyncs the directory that holds `path`, making a rename into it
// durable.
bool SyncDirectoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  return ::close(fd) == 0 && synced;
}

// Atomic durable write shared by checkpoint and .slo result files: the
// pieces land in "<path>.tmp" in order, are fsynced and renamed, and the
// directory is fsynced so that the rename survives a power loss too.
std::string AtomicWriteFile(const std::string& path,
                            const ser::Pieces& pieces) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return "cannot open " + tmp;
  const bool wrote = WritePieces(fd, pieces) && ::fsync(fd) == 0;
  if (::close(fd) != 0 || !wrote) {
    std::remove(tmp.c_str());
    return "short write to " + tmp;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return "rename to " + path + " failed";
  }
  if (!SyncDirectoryOf(path)) {
    return "directory sync after rename to " + path + " failed";
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
  ser::Pieces protocol;
  protocol.AddView(ckpt.protocol_blob);
  ser::Pieces file;
  return WriteCheckpointFile(path, ckpt, protocol, &file);
}

std::string WriteCheckpointFile(const std::string& path,
                                const ServiceCheckpoint& ckpt,
                                const ser::Pieces& protocol,
                                ser::Pieces* file) {
  // EncodeCheckpoint's bytes, with every blob and protocol piece a view.
  file->clear();
  PutCheckpointHead(file->bytes(), ckpt);
  ser::PutVarint(file->bytes(), ckpt.service_blob.size());
  file->AddView(ckpt.service_blob);
  ser::PutVarint(file->bytes(), protocol.size());
  protocol.ForEach([file](std::string_view piece) { file->AddView(piece); });
  ser::PutVarint(file->bytes(), ckpt.writer_blob.size());
  file->AddView(ckpt.writer_blob);
  PutCrcTrailer(*file);
  const std::string err = AtomicWriteFile(path, *file);
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
