// The one soak driver. RunSoakSingle, RunSoakResumable and ResumeSoak all
// derive their run through DeriveSoakRun and drive it through DriveSoak;
// they differ only in the cuts (none for RunSoakSingle) and in whether a
// checkpoint is restored first (ResumeSoak). RunSoakExperiment fans
// RunSoakSingle out over the runner's ordered run pool.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "sim/population.h"

namespace anc::service {
namespace {

// Everything soak run `run_index` derives from its seed: run i replays
// from (base_seed, i) alone. `header` is both the trace RunHeader and the
// checkpoint fingerprint — a checkpoint restores only onto the run whose
// header it carries.
struct SoakRun {
  std::vector<TagId> universe;
  ChurnSchedule schedule;
  std::unique_ptr<sim::Protocol> protocol;
  trace::RunHeader header;
};

// Population, protocol and churn schedule each take their own Split() of
// the run's master stream, in that order. The service name (the header's
// protocol) is "<protocol>~<profile label>".
SoakRun DeriveSoakRun(const sim::ProtocolFactory& factory,
                      const ServiceConfig& config, const SoakOptions& options,
                      std::size_t run_index) {
  anc::Pcg32 master = sim::RunRng(options.base_seed, run_index);
  anc::Pcg32 pop_rng = master.Split();
  anc::Pcg32 proto_rng = master.Split();
  anc::Pcg32 churn_rng = master.Split();

  SoakRun run;
  const std::size_t universe_size =
      UniverseSizeFor(config.churn, options.n_initial, config.churn_stop_slot);
  run.universe = sim::MakePopulation(universe_size, pop_rng);
  run.schedule =
      BuildChurnSchedule(config.churn, universe_size, options.n_initial,
                         config.churn_stop_slot, churn_rng);
  run.protocol = factory(run.universe, proto_rng);
  run.header = trace::RunHeader{
      run_index, options.base_seed, options.n_initial, config.max_slots,
      std::string(run.protocol->name()) + "~" +
          (config.label.empty() ? "custom" : config.label)};
  return run;
}

// A run's cut buffers, reused by every cut so they keep their capacity.
struct CutBuffers {
  ServiceCheckpoint ckpt;  // head, service and writer blobs
  ser::Pieces protocol;    // sim::Protocol::SavePieces
  ser::Pieces file;        // the whole file, as written
};

// Fills `cut` and writes the checkpoint file. Durability order: the
// store is synced before the writer snapshot is taken, the snapshot
// before the file is renamed in, and the rename before the directory is
// synced.
std::string CutCheckpoint(const std::string& path,
                          const trace::RunHeader& fingerprint,
                          std::uint64_t slot, const InventoryService& service,
                          const sim::Protocol& protocol,
                          store::StoreFileSink* store, CutBuffers* cut) {
  ServiceCheckpoint& ckpt = cut->ckpt;
  ckpt.run_index = fingerprint.run_index;
  ckpt.base_seed = fingerprint.base_seed;
  ckpt.n_initial = fingerprint.n_tags;
  ckpt.max_slots = fingerprint.max_slots_per_tag;
  ckpt.service_name = fingerprint.protocol;
  ckpt.slot = slot;
  ckpt.service_blob.clear();
  ckpt.writer_blob.clear();
  cut->protocol.clear();
  service.SaveState(&ckpt.service_blob, slot);
  protocol.SavePieces(cut->protocol);
  if (store != nullptr) {
    // Durability first: the writer snapshot's saved offset must be
    // backed by bytes that survive a kill the instant after rename.
    const std::string sync_err = store->writer().SyncNow();
    if (!sync_err.empty()) return sync_err;
    store->writer().SaveState(&ckpt.writer_blob);
  }
  return WriteCheckpointFile(path, ckpt, cut->protocol, &cut->file);
}

// The one soak driver loop. Builds the service over `run` — restoring
// `service_blob` first when resuming, in which case the trace already
// holds the run header — wires the epoch, checkpoint and abort hooks,
// runs it, and frames the run end unless the kill hook fired. `store` is
// null or `sink` itself: the store file whose writer snapshot each
// checkpoint carries. Returns "" or why the service state was rejected.
std::string DriveSoak(SoakRun& run, const ServiceConfig& config,
                      const SoakOptions& options, trace::TraceSink* sink,
                      store::StoreFileSink* store,
                      const ResumableOptions& resumable,
                      const std::string* service_blob, bool* aborted,
                      SloReport* report) {
  sim::Protocol& protocol = *run.protocol;
  if (sink != nullptr) {
    if (service_blob == nullptr) sink->BeginRun(run.header);
    protocol.AttachTrace(trace::TraceContext{sink, 0});
  }
  InventoryService service(config, protocol, run.universe, options.n_initial,
                           run.schedule, trace::TraceContext{sink, 0},
                           options.snapshot_log);
  if (service_blob != nullptr) {
    ser::Reader r{*service_blob};
    if (!service.RestoreState(r, nullptr) || !r.AtEnd()) {
      return "checkpoint: service state rejected";
    }
  }

  CutBuffers cut;
  InventoryService::RunHooks hooks;
  hooks.abort_before_slot = resumable.abort_before_slot;
  hooks.on_epoch = resumable.on_epoch;
  if (resumable.checkpoint_every_epochs > 0 &&
      !resumable.checkpoint_path.empty() && protocol.SupportsCheckpoint()) {
    hooks.checkpoint_every_epochs = resumable.checkpoint_every_epochs;
    hooks.on_checkpoint = [&](std::uint64_t slot) {
      // Best-effort: a failed checkpoint write must not kill the run —
      // the previous checkpoint (if any) stays valid on disk.
      const std::string err =
          CutCheckpoint(resumable.checkpoint_path, run.header, slot, service,
                        protocol, store, &cut);
      if (!err.empty()) {
        std::fprintf(stderr, "anc: checkpoint skipped: %s\n", err.c_str());
      }
    };
  }
  bool was_aborted = false;
  hooks.aborted = aborted != nullptr ? aborted : &was_aborted;
  *hooks.aborted = false;  // a stale true would drop the end framing
  *report = service.Run(hooks);
  // Crash emulation leaves no end framing.
  if (!*hooks.aborted && sink != nullptr) {
    sim::EndTracedRun(*sink, report->metrics, /*capped=*/false);
  }
  return "";
}

}  // namespace

SloReport RunSoakSingle(const sim::ProtocolFactory& factory,
                        const ServiceConfig& config,
                        const SoakOptions& options, std::size_t run_index,
                        trace::TraceSink* sink) {
  ResumableOptions no_cuts;
  no_cuts.checkpoint_every_epochs = 0;
  SoakRun run = DeriveSoakRun(factory, config, options, run_index);
  SloReport report;
  (void)DriveSoak(run, config, options, sink, nullptr, no_cuts, nullptr,
                  nullptr, &report);
  return report;
}

SloReport RunSoakResumable(const sim::ProtocolFactory& factory,
                           const ServiceConfig& config,
                           const SoakOptions& options, std::size_t run_index,
                           store::StoreFileSink* sink,
                           const ResumableOptions& resumable, bool* aborted) {
  SoakRun run = DeriveSoakRun(factory, config, options, run_index);
  SloReport report;
  (void)DriveSoak(run, config, options, sink, sink, resumable, nullptr,
                  aborted, &report);
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

  SoakRun run = DeriveSoakRun(factory, config, options, run_index);
  // Restoring onto a different run would silently produce garbage, so
  // every fingerprint field must match.
  if (trace::RunHeader{ckpt.run_index, ckpt.base_seed, ckpt.n_initial,
                       ckpt.max_slots, ckpt.service_name} != run.header) {
    return "checkpoint: fingerprint mismatch (wrong run for this checkpoint)";
  }
  if (!run.protocol->SupportsCheckpoint()) {
    return "checkpoint: protocol does not support checkpointing";
  }
  if (!run.protocol->RestoreState(ckpt.protocol_blob)) {
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
  }

  bool was_aborted = false;
  if (aborted == nullptr) aborted = &was_aborted;
  SloReport out;
  const std::string err =
      DriveSoak(run, config, options, sink.get(), sink.get(), resumable,
                &ckpt.service_blob, aborted, &out);
  if (!err.empty()) return err;
  if (!*aborted && sink != nullptr && !sink->error().empty()) {
    return sink->error();
  }
  if (report != nullptr) *report = std::move(out);
  if (sink_out != nullptr) *sink_out = std::move(sink);
  return "";
}

SoakAggregate RunSoakExperiment(const sim::ProtocolFactory& factory,
                                const ServiceConfig& config,
                                const SoakOptions& options) {
  // The snapshot log is single-writer: with more than one run it would
  // see interleaved epochs from concurrent services, so only a lone run
  // keeps the live feed (RunSoakSingle callers wire it directly).
  SoakOptions per_run = options;
  if (options.runs > 1) per_run.snapshot_log = nullptr;
  std::vector<SloReport> reports(options.runs);
  sim::ForEachRun(options.runs, options.n_threads, options.trace,
                  [&](std::size_t run, trace::TraceSink* sink) {
                    reports[run] =
                        RunSoakSingle(factory, config, per_run, run, sink);
                  });
  SoakAggregate agg;
  for (const SloReport& r : reports) AccumulateSoak(agg, r);
  return agg;
}

}  // namespace anc::service
