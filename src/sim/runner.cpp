#include "sim/runner.h"

#include <atomic>
#include <thread>
#include <vector>

#include "sim/population.h"

namespace anc::sim {
namespace {

// Runs one protocol instance to completion (or the safety cap). Returns
// true if the protocol terminated on its own.
bool Drive(Protocol& protocol, std::uint64_t max_slots) {
  while (!protocol.Finished()) {
    if (protocol.metrics().TotalSlots() >= max_slots) return false;
    protocol.Step();
  }
  return true;
}

// Folds one run into the aggregate. Called in run-index order regardless
// of thread count, so the Add() sequence — and hence every mean / stddev
// bit — matches the sequential path exactly.
void Accumulate(AggregateResult& agg, const SingleRunResult& r) {
  if (r.capped) {
    ++agg.runs_capped;
    return;
  }
  const RunMetrics& m = r.metrics;
  agg.throughput.Add(m.Throughput());
  agg.total_slots.Add(static_cast<double>(m.TotalSlots()));
  agg.empty_slots.Add(static_cast<double>(m.empty_slots));
  agg.singleton_slots.Add(static_cast<double>(m.singleton_slots));
  agg.collision_slots.Add(static_cast<double>(m.collision_slots));
  agg.ids_from_collisions.Add(static_cast<double>(m.ids_from_collisions));
  agg.elapsed_seconds.Add(m.elapsed_seconds);
  agg.unresolved_records.Add(static_cast<double>(m.unresolved_records));
  agg.tags_read.Add(static_cast<double>(m.tags_read));
  agg.frames.Add(static_cast<double>(m.frames));
  agg.duplicate_receptions.Add(static_cast<double>(m.duplicate_receptions));
  agg.ids_injected.Add(static_cast<double>(m.ids_injected));
  agg.redundant_resolutions.Add(static_cast<double>(m.redundant_resolutions));
  agg.tag_transmissions.Add(static_cast<double>(m.tag_transmissions));
  agg.records_evicted.Add(static_cast<double>(m.records_evicted));
  agg.records_abandoned.Add(static_cast<double>(m.records_abandoned));
  agg.reader_crashes.Add(static_cast<double>(m.reader_crashes));
}

}  // namespace

SingleRunResult RunSingle(const ProtocolFactory& factory,
                          const ExperimentOptions& options,
                          std::size_t run_index, trace::TraceSink* sink) {
  anc::Pcg32 master = RunRng(options.base_seed, run_index);
  anc::Pcg32 pop_rng = master.Split();
  anc::Pcg32 proto_rng = master.Split();
  const auto population = MakePopulation(options.n_tags, pop_rng);

  auto protocol = factory(population, proto_rng);
  if (sink) {
    sink->BeginRun(trace::RunHeader{run_index, options.base_seed,
                                    options.n_tags,
                                    options.max_slots_per_tag,
                                    std::string(protocol->name())});
    protocol->AttachTrace(trace::TraceContext{sink, 0});
  }
  const std::uint64_t cap = options.max_slots_per_tag * options.n_tags + 1000;
  SingleRunResult result;
  result.capped = !Drive(*protocol, cap);
  result.metrics = protocol->metrics();
  if (sink) EndTracedRun(*sink, result.metrics, result.capped);
  return result;
}

anc::Pcg32 RunRng(std::uint64_t base_seed, std::uint64_t run_index) {
  return anc::Pcg32(base_seed + run_index, 0x9E3779B97F4A7C15ULL + run_index);
}

void EndTracedRun(trace::TraceSink& sink, const RunMetrics& m, bool capped) {
  sink.OnEvent(trace::RunEndEvent(m.tags_read, m.TotalSlots(),
                                  m.unresolved_records, m.elapsed_seconds,
                                  capped));
  sink.EndRun();
}

void AggregateResult::Merge(const AggregateResult& other) {
  throughput.Merge(other.throughput);
  total_slots.Merge(other.total_slots);
  empty_slots.Merge(other.empty_slots);
  singleton_slots.Merge(other.singleton_slots);
  collision_slots.Merge(other.collision_slots);
  ids_from_collisions.Merge(other.ids_from_collisions);
  elapsed_seconds.Merge(other.elapsed_seconds);
  unresolved_records.Merge(other.unresolved_records);
  tags_read.Merge(other.tags_read);
  frames.Merge(other.frames);
  duplicate_receptions.Merge(other.duplicate_receptions);
  ids_injected.Merge(other.ids_injected);
  redundant_resolutions.Merge(other.redundant_resolutions);
  tag_transmissions.Merge(other.tag_transmissions);
  records_evicted.Merge(other.records_evicted);
  records_abandoned.Merge(other.records_abandoned);
  reader_crashes.Merge(other.reader_crashes);
  runs_capped += other.runs_capped;
}

std::size_t EffectiveThreadCount(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ForEachRun(
    std::size_t runs, std::size_t n_threads, trace::TraceSink* sink,
    const std::function<void(std::size_t run, trace::TraceSink* run_sink)>&
        execute) {
  const std::size_t workers = std::min(EffectiveThreadCount(n_threads), runs);
  if (workers <= 1) {
    for (std::size_t run = 0; run < runs; ++run) execute(run, sink);
    return;
  }
  std::vector<trace::MemorySink> buffers(sink != nullptr ? runs : 0);
  // Dynamic work queue over run indices: runs vary in length (protocol
  // terminations differ across seeds), so static striping would leave
  // workers idle.
  std::atomic<std::size_t> next_run{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t run =
          next_run.fetch_add(1, std::memory_order_relaxed);
      if (run >= runs) return;
      execute(run, sink != nullptr ? &buffers[run] : nullptr);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  // Each buffer is freed as soon as its run is pushed.
  for (trace::MemorySink& buffer : buffers) {
    const trace::TraceFile file = buffer.TakeFile();
    for (const trace::RunTrace& run : file.runs) trace::PushRun(run, *sink);
  }
}

AggregateResult RunExperiment(const ProtocolFactory& factory,
                              const ExperimentOptions& options) {
  std::vector<SingleRunResult> results(options.runs);
  ForEachRun(options.runs, options.n_threads, options.trace,
             [&](std::size_t run, trace::TraceSink* sink) {
               results[run] = RunSingle(factory, options, run, sink);
             });
  AggregateResult agg;
  for (const SingleRunResult& r : results) Accumulate(agg, r);
  return agg;
}

RunMetrics RunOnce(const ProtocolFactory& factory, std::size_t n_tags,
                   std::uint64_t seed, std::uint64_t max_slots_per_tag) {
  // RunOnce at seed s is run index s of a base_seed-0 experiment
  // (RunRng(0, s)): a trace header's (base_seed, run_index) pair covers
  // both entry points.
  ExperimentOptions options;
  options.n_tags = n_tags;
  options.base_seed = 0;
  options.max_slots_per_tag = max_slots_per_tag;
  return RunSingle(factory, options, static_cast<std::size_t>(seed)).metrics;
}

}  // namespace anc::sim
