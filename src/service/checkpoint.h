// Crash-safe service checkpoints: a versioned "ANCCKPT1" file pairing
// the InventoryService's mutable state, the wrapped protocol's
// sim::Protocol checkpoint blob and (for traced runs) the store writer's
// mid-run snapshot, fingerprinted to the exact soak run it belongs to.
//
// The resume contract is byte-identity: a run that is SIGKILLed and
// resumed from its last checkpoint produces the same trace bytes and the
// same SloReport as the uninterrupted run. That works because every
// stream the run consumes is either re-derived deterministically from
// the run seed (universe, churn schedule, protocol construction) or
// carried in the checkpoint (all mutable RNG/estimator/ledger state),
// and because the store writer snapshot truncates the torn file back to
// the last durable offset before continuing.
//
// Checkpoint writes are atomic (tmp file + fsync + rename) and taken
// only after StoreWriter::SyncNow(), so a kill at any instant leaves
// either the previous checkpoint or the new one — both consistent with
// bytes already on disk.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "service/service.h"
#include "sim/runner.h"
#include "store/container.h"

namespace anc::service {

inline constexpr std::string_view kCheckpointMagic = "ANCCKPT1";
inline constexpr std::uint64_t kCheckpointVersion = 1;
// Oldest decodable version; bumping kCheckpointVersion must keep the
// decoder accepting everything in [kCheckpointVersionMin, current].
inline constexpr std::uint64_t kCheckpointVersionMin = 1;

struct ServiceCheckpoint {
  std::uint64_t version = kCheckpointVersion;
  // Fingerprint: a checkpoint restores only onto the identical run.
  std::uint64_t run_index = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t n_initial = 0;
  std::uint64_t max_slots = 0;
  std::string service_name;  // "<protocol>~<profile>"
  std::uint64_t slot = 0;    // slot the resumed loop continues from
  std::string service_blob;   // InventoryService::SaveState
  std::string protocol_blob;  // sim::Protocol::SaveState
  std::string writer_blob;    // StoreWriter::SaveState; empty = untraced
};

// Wire codec: magic, varint fields, length-prefixed blobs, Crc32 trailer
// over everything before it. Decode returns "" on success and fails
// closed on bad magic, unsupported version or checksum mismatch.
std::string EncodeCheckpoint(const ServiceCheckpoint& ckpt);
std::string DecodeCheckpoint(std::string_view bytes, ServiceCheckpoint* out);

// File IO. WriteCheckpointFile writes EncodeCheckpoint's bytes straight
// from the blobs (no whole-file copy), atomically: they land in
// "<path>.tmp", are fsynced, then renamed over `path`.
std::string WriteCheckpointFile(const std::string& path,
                                const ServiceCheckpoint& ckpt);
std::string ReadCheckpointFile(const std::string& path,
                               ServiceCheckpoint* out);

// ---- Resumable soak driver ----

struct ResumableOptions {
  // Cut a checkpoint after every this-many epoch snapshots (0 = never).
  std::uint64_t checkpoint_every_epochs = 5;
  std::string checkpoint_path;  // required when checkpointing
  // Kill-injection hook: the run stops dead (no drain/finalize/Shutdown,
  // no RunEnd trace framing) when the slot clock reaches this value.
  std::uint64_t abort_before_slot = 0;  // 0 = run to completion
  // Per-epoch callback (InventoryService::RunHooks::on_epoch): the
  // supervisor's worker heartbeat source.
  std::function<void(std::uint64_t slot)> on_epoch;
};

// RunSoakSingle with periodic checkpoints: the same run derivation and
// driver loop (service/soak.cpp), with cuts, so an un-killed
// RunSoakResumable run is byte-identical to RunSoakSingle over the same
// (factory, config, options, run_index).
// `sink` may be null (untraced run — the checkpoint then carries no
// writer blob). `aborted` (optional) reports whether the kill hook
// fired; when it did, the returned report is the partial pre-kill state
// and no end-of-run trace framing was written.
SloReport RunSoakResumable(const sim::ProtocolFactory& factory,
                           const ServiceConfig& config,
                           const SoakOptions& options, std::size_t run_index,
                           store::StoreFileSink* sink,
                           const ResumableOptions& resumable,
                           bool* aborted = nullptr);

// Restores `checkpoint_path` and continues the run to completion.
// Rebuilds the universe/schedule/protocol deterministically from the
// run seed, rejects checkpoints whose fingerprint does not match,
// reopens `trace_path` mid-run through the writer snapshot (empty =
// untraced), and keeps checkpointing on the same cadence — so a resumed
// run can itself be killed and resumed again. Returns "" on success and
// fills *report; when traced, *sink_out receives the resumed sink so
// the caller can Finish() the store file. The combined trace bytes and
// final report are byte-identical to the uninterrupted run's.
std::string ResumeSoak(const sim::ProtocolFactory& factory,
                       const ServiceConfig& config, const SoakOptions& options,
                       std::size_t run_index,
                       const std::string& checkpoint_path,
                       const std::string& trace_path,
                       const store::StoreWriterOptions& store_options,
                       const ResumableOptions& resumable, SloReport* report,
                       std::unique_ptr<store::StoreFileSink>* sink_out = nullptr,
                       bool* aborted = nullptr);

// Per-run SloReport result files ("ANCSLO01" magic + Crc32 trailer):
// how supervisor workers hand their finished run's report back across
// the process boundary. Write is atomic (tmp + rename) so a kill
// between "run finished" and "result durable" never leaves a torn
// half-report — the supervisor just reruns from the last checkpoint.
std::string WriteSloReportFile(const std::string& path, const SloReport& report);
std::string ReadSloReportFile(const std::string& path, SloReport* out);

}  // namespace anc::service
