// Multi-run experiment driver: fresh population and RNG stream per run,
// safety-capped simulation loop, aggregation of every metric the paper's
// tables need. The paper averages 100 runs; the bench binaries default
// lower and expose --runs / --full.
//
// Runs are independent by construction (run i's streams all derive from
// RunRng(base_seed, i)), so `RunExperiment` executes them on the ordered
// run pool (ForEachRun) and folds the per-run metrics back into the
// aggregate in run-index order. The pool hands the trace sink whole runs
// in the same order. The aggregate and the trace are therefore
// bit-identical for any thread count, including the sequential
// n_threads = 1 path. The soak driver (service/service.h) shares the seed
// rule, the pool and the run-end framing.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "common/tag_id.h"
#include "sim/protocol.h"
#include "trace/sink.h"

namespace anc::sim {

// Livelock safety cap shared by every driver loop (RunExperiment, RunOnce,
// deploy::RunDeployment): a run aborts after max_slots_per_tag * n_tags +
// 1000 slots. Healthy protocols need ~1.7-3 slots per tag, so the default
// never binds; keeping a single constant means the cap is consistent
// across the single-reader and deployment paths.
inline constexpr std::uint64_t kDefaultMaxSlotsPerTag = 100;

// Builds a protocol for one run over `population`; `rng` is an independent
// stream for that run. The factory is invoked concurrently from worker
// threads when n_threads > 1, so it must be safe to call from multiple
// threads at once (the stock factories in core/factories.h are: they only
// read captured options).
using ProtocolFactory = std::function<std::unique_ptr<Protocol>(
    std::span<const TagId> population, anc::Pcg32 rng)>;

struct AggregateResult {
  RunningStats throughput;
  RunningStats total_slots;
  RunningStats empty_slots;
  RunningStats singleton_slots;
  RunningStats collision_slots;
  RunningStats ids_from_collisions;
  RunningStats elapsed_seconds;
  RunningStats unresolved_records;
  RunningStats tags_read;
  RunningStats frames;  // frames; for deployments, global scheduler slots
  RunningStats duplicate_receptions;  // deployments: duplicate reads
  RunningStats ids_injected;  // deployments: IDs learned via record sharing
  RunningStats redundant_resolutions;  // same-pair records resolving twice
  RunningStats tag_transmissions;      // energy-side metric (see RunMetrics)
  RunningStats records_evicted;    // fault layer: bounded-store evictions
  RunningStats records_abandoned;  // fault layer: retry/TTL abandonments
  RunningStats reader_crashes;     // fault layer: mid-inventory crashes
  std::uint64_t runs_capped = 0;  // runs that hit the slot safety cap

  // Pools another aggregate into this one (Welford-combine per metric).
  // For sharding a sweep across processes/machines; note that merged
  // aggregates follow parallel-merge rounding, not the run-index-ordered
  // accumulation RunExperiment itself guarantees.
  void Merge(const AggregateResult& other);
};

struct ExperimentOptions {
  std::size_t n_tags = 1000;
  std::size_t runs = 20;
  std::uint64_t base_seed = 1;
  // Abort a run after this many slots per tag (detects protocol livelock;
  // tests assert it never triggers).
  std::uint64_t max_slots_per_tag = kDefaultMaxSlotsPerTag;
  // Worker threads for the run loop. 0 = one per hardware core. Any value
  // yields the same aggregate bit-for-bit (see file comment).
  std::size_t n_threads = 1;
  // Trace sink (src/trace); null = tracing off. It receives every run,
  // whole and in run-index order, from the calling thread (ForEachRun).
  trace::TraceSink* trace = nullptr;
};

AggregateResult RunExperiment(const ProtocolFactory& factory,
                              const ExperimentOptions& options);

struct SingleRunResult {
  bool capped = false;  // hit the livelock cap; metrics still populated
  RunMetrics metrics;
};

// Executes run `run_index` of the (factory, options) experiment exactly as
// RunExperiment would — same seed derivation, same cap, same trace framing
// (BeginRun / events / terminal RunEnd event / EndRun) when `sink` is
// non-null. Exposed so the replay verifier (service/replay.h) can
// re-drive one recorded run and compare streams event-for-event.
SingleRunResult RunSingle(const ProtocolFactory& factory,
                          const ExperimentOptions& options,
                          std::size_t run_index,
                          trace::TraceSink* sink = nullptr);

// Resolves a requested thread count: 0 -> hardware_concurrency (at least
// 1). Exposed so harnesses can report the count actually used.
std::size_t EffectiveThreadCount(std::size_t requested);

// The seed rule: the master stream of run `run_index` of a `base_seed`
// experiment, Pcg32(base_seed + i, GOLDEN_GAMMA + i). Every run driver
// (RunSingle, RunOnce as run `seed` of base seed 0, the soak drivers and
// deploy::RunDeployment) starts from it, so a trace header's
// (base_seed, run_index) pair names the run whatever drove it.
anc::Pcg32 RunRng(std::uint64_t base_seed, std::uint64_t run_index);

// Closes a traced run: the terminal RunEnd event from the run's final
// metrics, then EndRun.
void EndTracedRun(trace::TraceSink& sink, const RunMetrics& metrics,
                  bool capped);

// The ordered run pool: calls execute(run, run_sink) for every run in
// [0, runs) on up to n_threads workers (EffectiveThreadCount), each index
// once. `execute` must be safe to call concurrently for distinct runs; it
// stores run i's result in slot i of a buffer sized `runs`, which the
// caller folds in run-index order once the pool returns, so the fold —
// and every aggregate bit — is the same at any thread count.
//
// Traces take the same route. Run inline (one worker, or one run), each
// run gets `sink` itself and streams straight into it, in order. On
// workers each run gets a private trace::MemorySink, and once the pool
// joins the buffered runs are pushed into `sink` in run-index order. So
// `sink` sees whole runs, in order, from the calling thread alone. A null
// `sink` hands every run a null run_sink.
void ForEachRun(
    std::size_t runs, std::size_t n_threads, trace::TraceSink* sink,
    const std::function<void(std::size_t run, trace::TraceSink* run_sink)>&
        execute);

// Single run, returning the raw metrics (used by examples and tests).
RunMetrics RunOnce(const ProtocolFactory& factory, std::size_t n_tags,
                   std::uint64_t seed,
                   std::uint64_t max_slots_per_tag = kDefaultMaxSlotsPerTag);

}  // namespace anc::sim
