// Multi-run experiment driver: fresh population and RNG stream per run,
// safety-capped simulation loop, aggregation of every metric the paper's
// tables need. The paper averages 100 runs; the bench binaries default
// lower and expose --runs / --full.
//
// Runs are independent by construction (run i's seed is derived only from
// base_seed + i), so `RunExperiment` executes them on a fixed-size worker
// pool and folds the per-run metrics back into the aggregate in run-index
// order. The aggregate is therefore bit-identical for any thread count,
// including the sequential n_threads = 1 path.
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
  // Per-run trace sink factory (src/trace); null = tracing off. Called
  // once per run — concurrently from worker threads when n_threads > 1 —
  // so it must be thread-safe across distinct run indices (the stock
  // trace::MultiRunRecorder is: each run writes a pre-sized private slot,
  // and its serialized output is byte-identical at any thread count).
  trace::TraceSinkFactory trace_factory;
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

// Single run, returning the raw metrics (used by examples and tests).
RunMetrics RunOnce(const ProtocolFactory& factory, std::size_t n_tags,
                   std::uint64_t seed,
                   std::uint64_t max_slots_per_tag = kDefaultMaxSlotsPerTag);

}  // namespace anc::sim
