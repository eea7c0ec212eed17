#include "service/checkpoint.h"

#include <cstdio>
#include <optional>
#include <utility>

#include <unistd.h>

#include "common/file_io.h"
#include "common/serialize.h"
#include "sim/population.h"
#include "store/crc32.h"
#include "trace/event.h"

namespace anc::service {
namespace {

// Fingerprint fields shared by the checkpoint cutter and the resume
// validator, so the two can never drift apart.
struct Fingerprint {
  std::uint64_t run_index = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t n_initial = 0;
  std::uint64_t max_slots = 0;
  std::string service_name;
};

// Fills `ckpt` (reused across cuts, so its blobs keep their capacity)
// and writes it. Durability order: the store is synced before the writer
// snapshot is taken, and the snapshot before the file is renamed in.
std::string CutCheckpoint(const std::string& path, const Fingerprint& fp,
                          std::uint64_t slot, const InventoryService& service,
                          const sim::Protocol& protocol,
                          store::StoreFileSink* sink, ServiceCheckpoint* ckpt) {
  ckpt->run_index = fp.run_index;
  ckpt->base_seed = fp.base_seed;
  ckpt->n_initial = fp.n_initial;
  ckpt->max_slots = fp.max_slots;
  ckpt->service_name = fp.service_name;
  ckpt->slot = slot;
  ckpt->service_blob.clear();
  ckpt->protocol_blob.clear();
  ckpt->writer_blob.clear();
  service.SaveState(&ckpt->service_blob, slot);
  protocol.SaveState(&ckpt->protocol_blob);
  if (sink != nullptr) {
    // Durability first: the writer snapshot's saved offset must be
    // backed by bytes that survive a kill the instant after rename.
    const std::string sync_err = sink->writer().SyncNow();
    if (!sync_err.empty()) return sync_err;
    sink->writer().SaveState(&ckpt->writer_blob);
  }
  return WriteCheckpointFile(path, *ckpt);
}

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

SloReport RunSoakResumable(const sim::ProtocolFactory& factory,
                           const ServiceConfig& config,
                           const SoakOptions& options, std::size_t run_index,
                           store::StoreFileSink* sink,
                           const ResumableOptions& resumable, bool* aborted) {
  // Identical derivation to RunSoakSingle: run i replays from its seed.
  anc::Pcg32 master(options.base_seed + run_index,
                    0x9E3779B97F4A7C15ULL + run_index);
  anc::Pcg32 pop_rng = master.Split();
  anc::Pcg32 proto_rng = master.Split();
  anc::Pcg32 churn_rng = master.Split();

  const std::size_t universe_size =
      UniverseSizeFor(config.churn, options.n_initial, config.churn_stop_slot);
  const auto universe = sim::MakePopulation(universe_size, pop_rng);
  const ChurnSchedule schedule =
      BuildChurnSchedule(config.churn, universe_size, options.n_initial,
                         config.churn_stop_slot, churn_rng);

  auto protocol = factory(universe, proto_rng);
  const std::string service_name =
      std::string(protocol->name()) + "~" +
      (config.label.empty() ? "custom" : config.label);
  if (sink != nullptr) {
    sink->BeginRun(trace::RunHeader{run_index, options.base_seed,
                                    options.n_initial, config.max_slots,
                                    service_name});
    protocol->AttachTrace(trace::TraceContext{sink, 0});
  }

  InventoryService service(config, *protocol, universe, options.n_initial,
                           schedule, trace::TraceContext{sink, 0},
                           options.snapshot_log);

  const Fingerprint fp{run_index, options.base_seed, options.n_initial,
                       config.max_slots, service_name};
  ServiceCheckpoint cut;  // reused by every cut of this run
  InventoryService::RunHooks hooks;
  hooks.abort_before_slot = resumable.abort_before_slot;
  hooks.aborted = aborted;
  hooks.on_epoch = resumable.on_epoch;
  if (resumable.checkpoint_every_epochs > 0 &&
      !resumable.checkpoint_path.empty() && protocol->SupportsCheckpoint()) {
    hooks.checkpoint_every_epochs = resumable.checkpoint_every_epochs;
    hooks.on_checkpoint = [&](std::uint64_t slot) {
      // Best-effort: a failed checkpoint write must not kill the run —
      // the previous checkpoint (if any) stays valid on disk.
      const std::string err =
          CutCheckpoint(resumable.checkpoint_path, fp, slot, service,
                        *protocol, sink, &cut);
      if (!err.empty()) {
        std::fprintf(stderr, "anc: checkpoint skipped: %s\n", err.c_str());
      }
    };
  }

  bool was_aborted = false;
  if (hooks.aborted == nullptr) hooks.aborted = &was_aborted;
  SloReport report = service.Run(hooks);
  if (*hooks.aborted) return report;  // crash emulation: no end framing

  if (sink != nullptr) {
    const sim::RunMetrics& m = report.metrics;
    sink->OnEvent(trace::RunEndEvent(m.tags_read, m.TotalSlots(),
                                     m.unresolved_records, m.elapsed_seconds,
                                     /*capped=*/false));
    sink->EndRun();
  }
  return report;
}

std::string ResumeSoak(const sim::ProtocolFactory& factory,
                       const ServiceConfig& config, const SoakOptions& options,
                       std::size_t run_index,
                       const std::string& checkpoint_path,
                       const std::string& trace_path,
                       const store::StoreWriterOptions& store_options,
                       const ResumableOptions& resumable, SloReport* report,
                       std::unique_ptr<store::StoreFileSink>* sink_out,
                       bool* aborted) {
  ServiceCheckpoint ckpt;
  const std::string read_err = ReadCheckpointFile(checkpoint_path, &ckpt);
  if (!read_err.empty()) return read_err;

  // Re-derive the run exactly as RunSoakResumable would have.
  anc::Pcg32 master(options.base_seed + run_index,
                    0x9E3779B97F4A7C15ULL + run_index);
  anc::Pcg32 pop_rng = master.Split();
  anc::Pcg32 proto_rng = master.Split();
  anc::Pcg32 churn_rng = master.Split();

  const std::size_t universe_size =
      UniverseSizeFor(config.churn, options.n_initial, config.churn_stop_slot);
  const auto universe = sim::MakePopulation(universe_size, pop_rng);
  const ChurnSchedule schedule =
      BuildChurnSchedule(config.churn, universe_size, options.n_initial,
                         config.churn_stop_slot, churn_rng);

  auto protocol = factory(universe, proto_rng);
  const std::string service_name =
      std::string(protocol->name()) + "~" +
      (config.label.empty() ? "custom" : config.label);

  // Fingerprint gate: restoring onto a different run would silently
  // produce garbage, so every field must match.
  if (ckpt.run_index != run_index || ckpt.base_seed != options.base_seed ||
      ckpt.n_initial != options.n_initial ||
      ckpt.max_slots != config.max_slots ||
      ckpt.service_name != service_name) {
    return "checkpoint: fingerprint mismatch (wrong run for this checkpoint)";
  }
  if (!protocol->SupportsCheckpoint()) {
    return "checkpoint: protocol does not support checkpointing";
  }
  if (!protocol->RestoreState(ckpt.protocol_blob)) {
    return "checkpoint: protocol state rejected";
  }

  std::unique_ptr<store::StoreFileSink> sink;
  if (!trace_path.empty()) {
    if (ckpt.writer_blob.empty()) {
      return "checkpoint: no writer snapshot (run was untraced)";
    }
    sink = std::make_unique<store::StoreFileSink>(trace_path, ckpt.writer_blob,
                                                  store_options);
    if (!sink->error().empty()) return sink->error();
    // Mid-run: the RunHeader is already in the file — no BeginRun here.
    protocol->AttachTrace(trace::TraceContext{sink.get(), 0});
  }

  InventoryService service(config, *protocol, universe, options.n_initial,
                           schedule, trace::TraceContext{sink.get(), 0},
                           options.snapshot_log);
  ser::Reader r{ckpt.service_blob};
  std::uint64_t slot = 0;
  if (!service.RestoreState(r, &slot) || !r.AtEnd()) {
    return "checkpoint: service state rejected";
  }

  const Fingerprint fp{run_index, options.base_seed, options.n_initial,
                       config.max_slots, service_name};
  ServiceCheckpoint cut;  // reused by every cut of this run
  InventoryService::RunHooks hooks;
  hooks.abort_before_slot = resumable.abort_before_slot;
  hooks.aborted = aborted;
  hooks.on_epoch = resumable.on_epoch;
  if (resumable.checkpoint_every_epochs > 0 &&
      !resumable.checkpoint_path.empty()) {
    hooks.checkpoint_every_epochs = resumable.checkpoint_every_epochs;
    hooks.on_checkpoint = [&](std::uint64_t at_slot) {
      const std::string err =
          CutCheckpoint(resumable.checkpoint_path, fp, at_slot, service,
                        *protocol, sink.get(), &cut);
      if (!err.empty()) {
        std::fprintf(stderr, "anc: checkpoint skipped: %s\n", err.c_str());
      }
    };
  }

  bool was_aborted = false;
  if (hooks.aborted == nullptr) hooks.aborted = &was_aborted;
  SloReport out = service.Run(hooks);
  if (!*hooks.aborted && sink != nullptr) {
    const sim::RunMetrics& m = out.metrics;
    sink->OnEvent(trace::RunEndEvent(m.tags_read, m.TotalSlots(),
                                     m.unresolved_records, m.elapsed_seconds,
                                     /*capped=*/false));
    sink->EndRun();
    if (!sink->error().empty()) return sink->error();
  }
  if (report != nullptr) *report = std::move(out);
  if (sink_out != nullptr) *sink_out = std::move(sink);
  return "";
}

}  // namespace anc::service
