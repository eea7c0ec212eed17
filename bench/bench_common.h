// Shared helpers for the table/figure harness binaries.
//
// Every harness accepts the common flags --runs/--full/--seed/--threads/
// --json (plus per-binary extras declared through RequireKnownFlags).
// --threads parallelizes the per-point run loop without changing any
// printed number: RunExperiment folds runs back in run-index order, so
// the aggregate is bit-identical at every thread count. --json=<path>
// appends one machine-readable JSON line per invocation (every data
// point's mean/stddev/min/max plus runs, seed, threads and wall time) so
// repeated bench runs accumulate a trajectory file.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>  // mkdtemp
#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/factories.h"
#include "phy/timing.h"
#include "sim/runner.h"
#include "trace/jsonl.h"
#include "trace/binary.h"

namespace anc::bench {

struct HarnessOptions {
  std::size_t runs = 10;
  std::uint64_t seed = 1;
  bool full = false;       // paper-scale sweep
  std::size_t threads = 0;  // workers for the run loop; 0 = all cores
  std::string json_path;   // append per-invocation JSON here ("" = off)
  std::string trace_path;  // append binary slot-level traces ("" = off)
};

namespace detail {

// Per-process JSON trajectory state. Harnesses are single-threaded at the
// top level (parallelism lives inside RunExperiment), so plain globals
// behind an inline accessor are safe.
struct JsonState {
  std::string path;
  std::string bench_name;
  std::uint64_t seed = 0;
  std::size_t threads = 0;
  bool full = false;
  std::chrono::steady_clock::time_point start;
  std::vector<std::string> points;  // pre-serialized JSON objects
};

inline JsonState& Json() {
  static JsonState state;
  return state;
}

using trace::JsonNum;
using trace::JsonStr;

inline std::string JsonStats(const RunningStats& s) {
  return "{\"count\":" + std::to_string(s.count()) +
         ",\"mean\":" + JsonNum(s.mean()) +
         ",\"stddev\":" + JsonNum(s.stddev()) +
         ",\"min\":" + JsonNum(s.min()) + ",\"max\":" + JsonNum(s.max()) +
         "}";
}

inline void FlushJson() {
  JsonState& j = Json();
  if (j.path.empty()) return;
  std::FILE* f = std::fopen(j.path.c_str(), "a");
  if (!f) {
    std::fprintf(stderr, "warning: cannot open --json file %s\n",
                 j.path.c_str());
    return;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    j.start)
          .count();
  std::string line = "{\"bench\":" + JsonStr(j.bench_name) +
                     ",\"seed\":" + std::to_string(j.seed) +
                     ",\"threads\":" + std::to_string(j.threads) +
                     ",\"full\":" + (j.full ? "true" : "false") +
                     ",\"wall_seconds\":" + JsonNum(wall) + ",\"points\":[";
  for (std::size_t i = 0; i < j.points.size(); ++i) {
    if (i) line += ',';
    line += j.points[i];
  }
  line += "]}\n";
  std::fputs(line.c_str(), f);
  std::fclose(f);
}

// A kernel's per-op time over its timed blocks: the median and the
// spread around it.
struct KernelTiming {
  double us_per_op = 0.0;  // median block
  double us_per_op_min = 0.0;
  double us_per_op_max = 0.0;
  int blocks = 0;
};

// One data point for a raw signal-chain kernel: how many samples per
// second the kernel sustains (throughput of the inner loop, not of the
// protocol), from the median block. bench_signal emits these next to its
// end-to-end point so one JSONL line captures both views of a build's
// speed.
inline void RecordKernelJsonPoint(const std::string& label,
                                  double samples_per_sec,
                                  double wall_seconds,
                                  const KernelTiming& timing) {
  JsonState& j = Json();
  if (j.path.empty()) return;
  j.points.push_back("{\"label\":" + JsonStr(label) +
                     ",\"kind\":\"kernel\",\"samples_per_sec\":" +
                     JsonNum(samples_per_sec) +
                     ",\"wall_seconds\":" + JsonNum(wall_seconds) +
                     ",\"us_per_op\":" + JsonNum(timing.us_per_op) +
                     ",\"us_per_op_min\":" + JsonNum(timing.us_per_op_min) +
                     ",\"us_per_op_max\":" + JsonNum(timing.us_per_op_max) +
                     ",\"blocks\":" + std::to_string(timing.blocks) + "}");
}

// `fault_metrics` appends the fault-layer aggregates (evictions,
// abandonments, crashes). Opt-in so pre-existing benches keep their JSON
// output byte-identical with faults off. `slots_per_sec` >= 0 adds the
// simulator-rate field (simulated slots per wall second) used by the
// bench_signal smoke check.
inline void RecordJsonPoint(const std::string& label, std::size_t n_tags,
                            const sim::ExperimentOptions& eo,
                            const sim::AggregateResult& result,
                            double wall_seconds,
                            bool fault_metrics = false,
                            double slots_per_sec = -1.0) {
  JsonState& j = Json();
  if (j.path.empty()) return;
  std::string point =
      "{\"label\":" + JsonStr(label) +
      ",\"n_tags\":" + std::to_string(n_tags) +
      ",\"runs\":" + std::to_string(eo.runs) +
      ",\"runs_capped\":" + std::to_string(result.runs_capped) +
      ",\"wall_seconds\":" + JsonNum(wall_seconds);
  if (slots_per_sec >= 0.0) {
    point += ",\"slots_per_sec\":" + JsonNum(slots_per_sec);
  }
  point += ",\"metrics\":{";
  const std::pair<const char*, const RunningStats*> metrics[] = {
      {"throughput", &result.throughput},
      {"total_slots", &result.total_slots},
      {"empty_slots", &result.empty_slots},
      {"singleton_slots", &result.singleton_slots},
      {"collision_slots", &result.collision_slots},
      {"ids_from_collisions", &result.ids_from_collisions},
      {"elapsed_seconds", &result.elapsed_seconds},
      {"unresolved_records", &result.unresolved_records},
      {"redundant_resolutions", &result.redundant_resolutions},
      {"tag_transmissions", &result.tag_transmissions},
      {"tags_read", &result.tags_read},
      {"frames", &result.frames},
      {"duplicate_receptions", &result.duplicate_receptions},
      {"ids_injected", &result.ids_injected},
  };
  bool first = true;
  for (const auto& [name, stats] : metrics) {
    if (!first) point += ',';
    first = false;
    point += std::string("\"") + name + "\":" + JsonStats(*stats);
  }
  if (fault_metrics) {
    point += ",\"records_evicted\":" + JsonStats(result.records_evicted);
    point += ",\"records_abandoned\":" + JsonStats(result.records_abandoned);
    point += ",\"reader_crashes\":" + JsonStats(result.reader_crashes);
  }
  point += "}}";
  j.points.push_back(std::move(point));
}

}  // namespace detail

inline HarnessOptions ParseHarness(const CliArgs& args,
                                   std::size_t default_runs = 10) {
  HarnessOptions o;
  o.full = args.GetBool("full");
  o.runs = static_cast<std::size_t>(
      args.GetInt("runs", o.full ? 100 : static_cast<std::int64_t>(default_runs)));
  o.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  o.threads = static_cast<std::size_t>(args.GetInt("threads", 0));
  o.json_path = args.GetString("json", "");
  o.trace_path = args.GetString("trace", "");
  return o;
}

// Rejects any --flag not in the shared harness set or `extra`; prints the
// supported-flag list and exits(2) on violation.
inline void RequireKnownFlags(const CliArgs& args, const std::string& program,
                              const std::vector<FlagSpec>& extra = {}) {
  std::vector<FlagSpec> known = {
      {"runs", "runs per data point (harness default; --full => 100)"},
      {"full", "paper-scale sweep (100 runs, full grids)"},
      {"seed", "base RNG seed (default 1); run i uses seed+i"},
      {"threads", "worker threads for the run loop; 0 = all cores"},
      {"json", "append machine-readable results to this JSONL file"},
      {"trace", "append binary slot-level traces to this file "
                "(inspect with trace_inspect)"},
  };
  known.insert(known.end(), extra.begin(), extra.end());
  DieOnUnknownFlags(args, program, known);
}

inline sim::AggregateResult Run(const sim::ProtocolFactory& factory,
                                std::size_t n_tags,
                                const HarnessOptions& opts,
                                const std::string& json_label = "",
                                bool fault_metrics = false) {
  sim::ExperimentOptions eo;
  eo.n_tags = n_tags;
  eo.runs = opts.runs;
  eo.base_seed = opts.seed;
  eo.n_threads = opts.threads;
  // --trace: record every run's slot-level event stream and append the
  // run blocks (in run-index order, independent of --threads) to the
  // file. One bench invocation appends one block per (point, run).
  trace::MemorySink recorded;
  if (!opts.trace_path.empty()) eo.trace = &recorded;
  const auto start = std::chrono::steady_clock::now();
  auto result = sim::RunExperiment(factory, eo);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (eo.trace != nullptr) {
    const std::string err =
        trace::AppendRunsToFile(opts.trace_path, recorded.runs());
    if (!err.empty()) {
      std::fprintf(stderr, "warning: --trace: %s\n", err.c_str());
    }
  }
  detail::RecordJsonPoint(json_label, n_tags, eo, result, wall,
                          fault_metrics);
  return result;
}

// Table cell for AggregateResult::throughput: benches print mean reading
// throughput in tags/second, but a point whose every run finished in zero
// simulated time (e.g. a zero-cost timing model) has no defined rate —
// print "n/a" instead of a misleading 0.
inline std::string ThroughputCell(const sim::AggregateResult& result,
                                  int digits = 1) {
  if (result.throughput.count() == 0 || result.elapsed_seconds.mean() <= 0.0) {
    return "n/a";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", digits, result.throughput.mean());
  return buf;
}

// A fresh private directory (mkdtemp, under the working directory) for a
// harness's scratch files, removed with its contents when the object goes
// out of scope, so concurrent invocations never clobber each other.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix) {
    std::string name = prefix + ".XXXXXX";
    if (::mkdtemp(name.data()) != nullptr) path_ = name;
  }
  ~ScratchDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  // Empty when the directory could not be created.
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

inline core::FcatOptions FcatFor(unsigned lambda,
                                 phy::TimingModel timing = {}) {
  core::FcatOptions o;
  o.lambda = lambda;
  o.timing = timing;
  return o;
}

// ---- Waveform-phy harness helpers ----------------------------------------
//
// The signal benches (bench_sync, bench_capture, bench_signal) all drive
// FCAT over SignalPhy with the same knobs; the flag list and the
// flags-to-options plumbing live here once. Each bench takes the returned
// base, copies it per data point and overrides the swept axis.

inline std::vector<FlagSpec> SignalFlagSpecs() {
  return {
      {"tags", "population size (default 150)"},
      {"snr", "reader front-end SNR in dB (default 25)"},
      {"jitter", "max timing jitter in samples (default 0)"},
      {"cfo", "max carrier frequency offset, rad/sample (default 0)"},
      {"capture", "enable the capture effect"},
      {"least-squares", "least-squares subtraction instead of direct"},
      {"demod-pool", "worker threads for batched demodulation; 0 = caller"},
  };
}

// Base FcatSignalOptions + experiment options for one data point. The
// experiment knobs mirror what every signal bench used inline before:
// waveform runs are slow, so populations are modest and runaway runs are
// cut at 600 slots per tag.
struct SignalBenchSetup {
  std::size_t n_tags = 150;
  core::FcatSignalOptions options{};
  sim::ExperimentOptions experiment{};
};

inline SignalBenchSetup SignalSetupFromFlags(const CliArgs& args,
                                             const HarnessOptions& opts) {
  SignalBenchSetup s;
  s.n_tags = static_cast<std::size_t>(args.GetInt("tags", 150));
  s.options.signal.snr_db = args.GetDouble("snr", 25.0);
  s.options.signal.max_timing_jitter_samples =
      static_cast<unsigned>(args.GetInt("jitter", 0));
  s.options.signal.max_cfo_per_sample = args.GetDouble("cfo", 0.0);
  s.options.signal.enable_capture = args.GetBool("capture");
  s.options.signal.subtraction = args.GetBool("least-squares")
                                     ? signal::SubtractionMode::kLeastSquares
                                     : signal::SubtractionMode::kDirect;
  s.options.signal.demod_pool_threads =
      static_cast<unsigned>(args.GetInt("demod-pool", 0));
  s.experiment.n_tags = s.n_tags;
  s.experiment.runs = opts.runs;
  s.experiment.base_seed = opts.seed;
  s.experiment.n_threads = opts.threads;
  s.experiment.max_slots_per_tag = 600;
  return s;
}

inline void PrintHeader(const char* title, const char* paper_ref,
                        const HarnessOptions& opts) {
  const std::size_t threads = sim::EffectiveThreadCount(opts.threads);
  std::printf("== %s ==\n", title);
  std::printf("(reproduces %s; %zu runs per point, seed %llu, %zu thread%s%s)\n\n",
              paper_ref, opts.runs,
              static_cast<unsigned long long>(opts.seed), threads,
              threads == 1 ? "" : "s", opts.full ? ", full sweep" : "");
  detail::JsonState& j = detail::Json();
  j.path = opts.json_path;
  j.bench_name = title;
  j.seed = opts.seed;
  j.threads = threads;
  j.full = opts.full;
  j.start = std::chrono::steady_clock::now();
  if (!j.path.empty()) std::atexit(detail::FlushJson);
}

}  // namespace anc::bench
