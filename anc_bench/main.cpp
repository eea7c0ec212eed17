// anc_bench: host-speed benchmark of the simulator, store and service.
//
//   anc_bench [--workload=NAME|all] [--seed=S] [--seconds=T] [--layers]
//             [--json=PATH] [--spans=PATH] [--scratch=DIR]
//
// Each workload builds its inputs from --seed (set-up is repeated and its
// median reported), then runs numbered ops for --seconds, split into
// rounds taken round-robin across the selected workloads, so a slow phase
// of the host hits every workload alike. Every op's outputs are checked;
// a failed check counts in "failed" and clears "correct".
//
// Untraced (default): prints the end-to-end metrics. --layers runs every
// op twice, untraced and then through the timing decorators (timed.h),
// requires both to produce identical outputs, and prints the per-layer
// metrics plus the tracing overhead. The last line of each workload's
// report is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "store/crc32.h"
#include "timed.h"
#include "workloads.h"

namespace {

using namespace anc;
using namespace anc::perf;
using bench::detail::JsonNum;
using bench::detail::JsonStr;
using Clock = std::chrono::steady_clock;

// The seed the digests below were recorded at.
constexpr std::uint64_t kDocumentedSeed = 1;

// CRC-32 over the output bytes of ops [0, warmup_ops) at kDocumentedSeed.
struct Pinned {
  std::string_view workload;
  std::uint32_t crc;
};
constexpr Pinned kPinned[] = {
    {"closed_fcat2", 0x87400a96u}, {"signal_fcat2", 0xd99410ceu},
    {"coded_load1", 0xf4977592u},  {"soak_ckpt", 0xe75bc55fu},
    {"store_rw", 0x13dc3519u},
};

constexpr std::size_t kRounds = 10;
// Set-ups per workload, spread over the rounds so that one slow phase of
// the host does not decide their median.
constexpr std::size_t kSetupReps = 5;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
};

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Bench {
  std::string name;
  std::unique_ptr<Workload> w;
  Tracer tracer;
  std::vector<double> setup_s;
  std::vector<double> op_rate;  // simulated slots per host second
  std::vector<double> latency_ms;
  std::size_t next_op = 0;
  double measured_s = 0;  // host time spent in ops (set-ups excluded)
  std::uint64_t attempted = 0, failed = 0;
  std::uint32_t digest = 0;  // over ops [0, warmup_ops)
  double untraced_s = 0, traced_s = 0;
  std::vector<std::string> errors;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(what));
  }
};

// Builds a fresh workload and runs its warm-up ops, whose outputs every
// set-up must reproduce byte for byte. Measured ops keep their own
// numbering: op i does not depend on which instance runs it.
void SetUp(Bench& b, std::uint64_t seed, const std::string& dir) {
  b.w.reset();
  const Clock::time_point t0 = Clock::now();
  b.w = MakeWorkload(b.name);
  std::string err = b.w->Setup(seed, dir);
  std::uint32_t digest = 0;
  for (std::size_t i = 0; err.empty() && i < b.w->warmup_ops(); ++i) {
    const OpResult r = b.w->RunOp(i, nullptr);
    err = r.error;
    digest = store::Crc32(r.digest, digest);
  }
  b.setup_s.push_back(Seconds(t0, Clock::now()));
  ++b.attempted;
  if (!err.empty()) {
    b.Fail("set-up: " + err);
  } else if (b.setup_s.size() == 1) {
    b.digest = digest;
  } else if (digest != b.digest) {
    b.Fail("set-up " + std::to_string(b.setup_s.size()) +
           ": outputs differ from the first set-up's");
  }
}

// Runs the next op and, with `layers`, its traced twin.
void RunNext(Bench& b, bool layers) {
  const std::size_t i = b.next_op++;
  const OpResult u = b.w->RunOp(i, nullptr);
  ++b.attempted;
  if (!u.error.empty()) b.Fail("op " + std::to_string(i) + ": " + u.error);
  b.untraced_s += u.work_s;
  b.op_rate.push_back(Ratio(static_cast<double>(u.slots), u.work_s));
  if (u.latency_ms.empty()) {
    b.latency_ms.push_back(u.work_s * 1e3);
  } else {
    b.latency_ms.insert(b.latency_ms.end(), u.latency_ms.begin(),
                        u.latency_ms.end());
  }
  if (layers) {
    b.tracer.BeginOp(i, /*keep_raw=*/i == 0);
    const OpResult t = b.w->RunOp(i, &b.tracer);
    b.tracer.EndOp();
    ++b.attempted;
    b.tracer.counters().slots += t.slots;
    b.traced_s += t.work_s;
    if (!t.error.empty()) {
      b.Fail("traced op " + std::to_string(i) + ": " + t.error);
    } else if (t.digest != u.digest) {
      b.Fail("traced op " + std::to_string(i) +
             ": outputs differ from its untraced twin");
    }
  }
}

// The process's peak resident set. VmHWM belongs to this program image;
// getrusage's ru_maxrss would also count the parent it was forked from.
double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::vector<Metric> EndToEnd(const Bench& b) {
  const std::size_t n = b.latency_ms.size();
  return {
      {"setup_s", Quantile(b.setup_s, 0.5), "s", b.setup_s.size()},
      {"slots_per_s", Quantile(b.op_rate, 0.5), "1/s", b.op_rate.size()},
      {"latency_ms_p50", Quantile(b.latency_ms, 0.5), "ms", n},
      {"latency_ms_p99", Quantile(b.latency_ms, 0.99), "ms", n},
      {"peak_rss_mb", PeakRssMiB(), "MiB", 1},
  };
}

std::vector<Metric> PerLayer(const Bench& b) {
  const Tracer& t = b.tracer;
  const Counters& c = t.counters();
  const auto total = [&](Span s) {
    return static_cast<double>(t.Total(s).total_ns);
  };
  const auto count = [&](Span s) {
    return static_cast<double>(t.Total(s).count);
  };
  const double slots = static_cast<double>(c.slots);
  const double observed = static_cast<double>(c.observed_slots);
  const double requests = static_cast<double>(c.resolve_requests);
  const double cuts = static_cast<double>(c.checkpoint_cuts);
  const double blocks = static_cast<double>(c.store_blocks);
  const double v1_mib = static_cast<double>(c.v1_bytes) / (1024.0 * 1024.0);
  const double store_events = static_cast<double>(c.store_events);
  // MiB per second from bytes and nanoseconds.
  const auto mib_s = [](double bytes, double ns) {
    return Ratio(bytes / (1024.0 * 1024.0), ns / 1e9);
  };
  // The service's own time: what the soak op spends outside protocol
  // calls and checkpoint cuts.
  const double service_self =
      c.soak_runs > 0
          ? static_cast<double>(t.agg(Span::kOp, Span::kOp).self_ns)
          : 0.0;
  const double io_ns =
      c.write_s * 1e9 - total(Span::kTransform) - total(Span::kLzCompress) -
      total(Span::kCrc);
  const std::size_t q = c.query_us.size();
  const std::size_t n_cut = c.cut_ms.size();
  return {
      {"core.self_ns_per_slot",
       Ratio(static_cast<double>(t.Total(Span::kCoreStep).self_ns), slots),
       "ns", c.ops},
      {"phy.observe_ns_per_slot", Ratio(total(Span::kObserve), observed), "ns",
       c.observed_slots},
      {"phy.resolve_ns_per_request", Ratio(total(Span::kResolve), requests),
       "ns", c.resolve_requests},
      {"phy.resolve_requests_per_slot", Ratio(requests, observed), "count",
       c.observed_slots},
      {"phy.resolve_useful_ratio",
       Ratio(static_cast<double>(c.resolve_useful), requests), "ratio",
       c.resolve_requests},
      {"phy.records_opened_per_slot",
       Ratio(static_cast<double>(c.records_opened), observed), "count",
       c.observed_slots},
      {"phy.open_records_mean",
       Ratio(static_cast<double>(c.open_records_sum), observed), "count",
       c.observed_slots},
      {"phy.open_records_max", static_cast<double>(c.open_records_max), "count",
       c.observed_slots},
      {"protocols.step_ns_per_slot", Ratio(total(Span::kProtoStep), slots),
       "ns", c.ops},
      {"service.self_ns_per_slot", Ratio(service_self, slots), "ns",
       c.soak_runs},
      {"service.churn_ns_per_call",
       Ratio(total(Span::kChurn), static_cast<double>(c.churn_calls)), "ns",
       c.churn_calls},
      {"service.churn_calls_per_slot",
       Ratio(static_cast<double>(c.churn_calls), slots), "count", c.ops},
      {"trace.events_per_slot",
       Ratio(static_cast<double>(c.sink_events), slots), "count", c.ops},
      {"trace.emit_ns_per_event",
       Ratio(total(Span::kEmit), count(Span::kEmit)), "ns",
       t.Total(Span::kEmit).count},
      {"store.flush_us_per_block",
       Ratio(total(Span::kFlush) / 1e3, count(Span::kFlush)), "us",
       t.Total(Span::kFlush).count},
      {"store.write_mb_s", Ratio(v1_mib, c.write_s), "MiB/s", c.ops},
      {"store.read_mb_s", Ratio(v1_mib, c.read_s), "MiB/s", c.ops},
      {"store.query_us_p50", Quantile(c.query_us, 0.5), "us", q},
      {"store.query_us_p99", Quantile(c.query_us, 0.99), "us", q},
      {"store.transform_ns_per_event",
       Ratio(total(Span::kTransform), store_events), "ns", c.store_blocks},
      {"store.lz_compress_mb_s",
       mib_s(static_cast<double>(c.store_raw_bytes), total(Span::kLzCompress)),
       "MiB/s", c.store_blocks},
      {"store.crc_mb_s",
       mib_s(static_cast<double>(c.store_comp_bytes), total(Span::kCrc)),
       "MiB/s", c.store_blocks},
      {"store.io_us_per_block", Ratio(io_ns / 1e3, blocks), "us",
       c.store_blocks},
      {"store.lz_decompress_mb_s",
       mib_s(static_cast<double>(c.store_raw_bytes),
             total(Span::kLzDecompress)),
       "MiB/s", t.Total(Span::kLzDecompress).count},
      {"store.decode_ns_per_event", Ratio(total(Span::kDecode), store_events),
       "ns", c.store_blocks},
      {"store.seek_ns", Ratio(total(Span::kSeek), static_cast<double>(c.seeks)),
       "ns", c.seeks},
      {"store.blocks_per_query",
       Ratio(static_cast<double>(c.query_blocks), count(Span::kQuery)), "count",
       t.Total(Span::kQuery).count},
      {"store.ratio",
       Ratio(static_cast<double>(c.v1_bytes),
             static_cast<double>(c.store_bytes)),
       "ratio", c.ops},
      {"store.bytes_per_event",
       Ratio(static_cast<double>(c.store_bytes), store_events), "B", c.ops},
      {"checkpoint.cut_ms_p50", Quantile(c.cut_ms, 0.5), "ms", n_cut},
      {"checkpoint.cut_ms_p99", Quantile(c.cut_ms, 0.99), "ms", n_cut},
      {"checkpoint.protocol_save_ms",
       Ratio(total(Span::kSave) / 1e6, count(Span::kSave)), "ms",
       t.Total(Span::kSave).count},
      {"checkpoint.bytes", Ratio(static_cast<double>(c.checkpoint_bytes), cuts),
       "B", c.checkpoint_cuts},
      {"checkpoint.cuts_per_run",
       Ratio(cuts, static_cast<double>(c.soak_runs)), "count", c.soak_runs},
      {"tracing_overhead", Ratio(b.traced_s, b.untraced_s), "ratio", c.ops},
  };
}

std::string Hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

// The result object. `head` (fields with a trailing comma) and the sample
// counts go only into --json lines; stdout carries the bare object.
std::string ResultJson(const Bench& b, const std::vector<Metric>& metrics,
                       const std::string& head, bool with_samples) {
  std::string out = "{" + head + "\"correct\": ";
  out += b.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(b.attempted) +
         ", \"failed\": " + std::to_string(b.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i) out += ", ";
    out += JsonStr(m.name) + ": {\"value\": " + JsonNum(m.value) +
           ", \"unit\": " + JsonStr(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}}";
}

void WriteSpans(std::FILE* f, const Bench& b) {
  const Tracer& t = b.tracer;
  for (std::size_t p = 0; p < static_cast<std::size_t>(Span::kCount); ++p) {
    for (std::size_t n = 0; n < static_cast<std::size_t>(Span::kCount); ++n) {
      const Tracer::Agg& a = t.agg(static_cast<Span>(p), static_cast<Span>(n));
      if (a.count == 0) continue;
      std::fprintf(f,
                   "{\"workload\":%s,\"parent\":%s,\"name\":%s,\"count\":%llu,"
                   "\"total_ns\":%lld,\"self_ns\":%lld}\n",
                   JsonStr(b.name).c_str(),
                   JsonStr(SpanName(static_cast<Span>(p))).c_str(),
                   JsonStr(SpanName(static_cast<Span>(n))).c_str(),
                   static_cast<unsigned long long>(a.count),
                   static_cast<long long>(a.total_ns),
                   static_cast<long long>(a.self_ns));
    }
  }
  for (const Tracer::RawSpan& s : t.raw()) {
    std::fprintf(f,
                 "{\"workload\":%s,\"op\":%llu,\"id\":%u,\"parent\":%u,"
                 "\"name\":%s,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 JsonStr(b.name).c_str(), static_cast<unsigned long long>(s.op),
                 s.id, s.parent, JsonStr(SpanName(s.name)).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::vector<FlagSpec> flags = {
      {"workload", "one workload by name, or all (default)"},
      {"seed", "input seed (default 1, the seed the digests are pinned at)"},
      {"seconds", "measured seconds per workload (default 20)"},
      {"layers", "traced run: per-layer metrics and tracing overhead"},
      {"json", "append one JSON line per workload to this file"},
      {"spans", "write span aggregates and op 0's raw spans to this file"},
      {"scratch", "directory for the run's temporary files (default .)"},
  };
  DieOnUnknownFlags(args, argv[0], flags);

  const std::string selected = args.GetString("workload", "all");
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  const double seconds = args.GetDouble("seconds", 20.0);
  const bool layers = args.GetBool("layers");

  std::vector<Bench> benches;
  for (std::string_view name : WorkloadNames()) {
    if (selected == "all" || selected == name) {
      benches.emplace_back().name = std::string(name);
    }
  }
  if (benches.empty()) {
    std::fprintf(stderr, "unknown --workload=%s; known:", selected.c_str());
    for (std::string_view name : WorkloadNames()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(name.size()),
                   name.data());
    }
    std::fprintf(stderr, " all\n");
    return 2;
  }

  const std::filesystem::path parent = args.GetString("scratch", ".");
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  std::string templ = (parent / "anc_bench.XXXXXX").string();
  if (mkdtemp(templ.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a scratch directory under %s\n",
                 parent.string().c_str());
    return 2;
  }
  const std::string dir = templ;

  const double budget = seconds / static_cast<double>(kRounds);
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (Bench& b : benches) {
      // Set-up k runs before round k * kRounds / kSetupReps.
      while (b.setup_s.size() < kSetupReps &&
             b.setup_s.size() * kRounds / kSetupReps <= r) {
        SetUp(b, seed, dir);
      }
      // Round r ends once the workload has measured (r + 1) * budget, so
      // the overshoot of one round shortens the next.
      do {
        const Clock::time_point start = Clock::now();
        RunNext(b, layers);
        b.measured_s += Seconds(start, Clock::now());
      } while (b.measured_s < budget * static_cast<double>(r + 1));
    }
  }
  std::filesystem::remove_all(dir, ec);

  const auto open = [&](const char* flag, const char* mode) -> std::FILE* {
    if (!args.Has(flag)) return nullptr;
    const std::string path = args.GetString(flag, "");
    std::FILE* f = std::fopen(path.c_str(), mode);
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot open --%s file %s\n", flag,
                   path.c_str());
    }
    return f;
  };
  std::FILE* json = open("json", "a");
  std::FILE* spans = open("spans", "w");

  for (Bench& b : benches) {
    if (seed == kDocumentedSeed) {
      for (const Pinned& p : kPinned) {
        if (p.workload == b.name && p.crc != b.digest) {
          b.Fail("digest " + Hex(b.digest) + " != pinned " + Hex(p.crc));
        }
      }
    }
    if (layers && !b.tracer.children_within_parent()) {
      b.Fail("a span's children outlast it");
    }
    const std::vector<Metric> metrics = layers ? PerLayer(b) : EndToEnd(b);
    std::printf("== %s (seed %llu, %s, %zu ops, digest %s) ==\n",
                b.name.c_str(), static_cast<unsigned long long>(seed),
                layers ? "traced" : "untraced", b.next_op,
                Hex(b.digest).c_str());
    for (const Metric& m : metrics) {
      std::printf("  %-32s %14.6g %-6s (%zu samples)\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    }
    for (const std::string& e : b.errors) {
      std::printf("  FAILED %s\n", e.c_str());
    }
    if (json != nullptr) {
      const std::string head =
          "\"workload\": " + JsonStr(b.name) +
          ", \"seed\": " + std::to_string(seed) +
          ", \"layers\": " + (layers ? "true" : "false") +
          ", \"digest\": " + JsonStr(Hex(b.digest)) + ", ";
      std::fprintf(json, "%s\n", ResultJson(b, metrics, head, true).c_str());
    }
    if (spans != nullptr) WriteSpans(spans, b);
    std::printf("%s\n", ResultJson(b, metrics, "", false).c_str());
  }
  if (json != nullptr) std::fclose(json);
  if (spans != nullptr) std::fclose(spans);
  return 0;
}
