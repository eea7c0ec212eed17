// trace_inspect — command-line companion to the src/trace subsystem.
//
//   trace_inspect summarize <file>              per-run event inventory
//   trace_inspect filter <file> [--run=] [--kind=] [--reader=] [--limit=]
//                  [--format=text|jsonl]        print matching events
//   trace_inspect diff <a> <b>                  first divergence; exit 1
//   trace_inspect timeseries <file> [--run=] [--reader=] [--csv=path]
//   trace_inspect replay <file>                 re-drive + verify each run
//   trace_inspect query <file> [--op=summarize|blocks|frames|epochs]
//                  [--run=] [--lo=] [--hi=]     index-backed queries
//   trace_inspect serve <file>                  query REPL over stdin
//   trace_inspect compress <in> <out> [--block-events=] [--raw]
//   trace_inspect decompress <in> <out>
//   trace_inspect recover <in> <out>            salvage a torn store tail
//   trace_inspect record --out=<file>
//                  [--protocol=fcat|scat|dfsa|crdsa|irsa|seeded|mpr|perfect]
//                  [--lambda=] [--capacity=] [--n=] [--runs=] [--seed=]
//
// Every reading command accepts both v1 "ANCTRACE" files and block-
// compressed "ANCSTORE" containers (src/store): files are opened through
// the store reader, which indexes either format. summarize, filter,
// diff, timeseries, replay and compress stream each run through
// store::RunCursor — memory stays O(block) no matter how large the soak
// trace is; decompress and recover load the whole file. query/serve
// answer summarize/blocks/frames/epochs requests from the footer index,
// decoding only the blocks a window touches (an O(log n) frame seek).
//
// `record` streams the small golden stores CI compares against into an
// ANCSTORE file; only `decompress` writes v1. `replay` re-drives each run
// from its recorded header straight into a comparison with the recorded
// events (service/replay.h). Both build their factory from the protocol
// name (FactoryFor); traces of other protocols summarize and diff fine
// but cannot be replayed here.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.h"
#include "common/file_io.h"
#include "core/factories.h"
#include "fault/injector.h"
#include "service/replay.h"
#include "service/service.h"
#include "store/container.h"
#include "store/query.h"
#include "trace/binary.h"
#include "trace/jsonl.h"
#include "trace/diff.h"
#include "trace/timeseries.h"

namespace {

using namespace anc;

int Usage() {
  std::fprintf(
      stderr,
      "usage: trace_inspect <command> ...\n"
      "  summarize <file>                     per-run event inventory\n"
      "  filter <file> [--run=I] [--kind=K] [--reader=R] [--limit=N]\n"
      "         [--format=text|jsonl]         print matching events\n"
      "  diff <a> <b>                         compare; exit 1 + first "
      "divergence\n"
      "  timeseries <file> [--run=I] [--reader=R] [--csv=path]\n"
      "                                       per-frame series (CSV)\n"
      "  replay <file>                        re-drive runs, verify "
      "identity\n"
      "                                       (FCAT-<lambda>[-signal],\n"
      "                                       SCAT-<lambda>, DFSA, CRDSA-<d>,\n"
      "                                       IRSA, SEEDED, MPR-<capacity>,\n"
      "                                       PERFECT)\n"
      "  query <file> [--op=summarize|blocks|frames|epochs] [--run=I]\n"
      "        [--lo=N] [--hi=N] [--limit=N]  index-backed queries\n"
      "  serve <file>                         answer query lines from "
      "stdin\n"
      "  compress <in> <out> [--block-events=N] [--raw]\n"
      "                                       trace -> ANCSTORE container\n"
      "  decompress <in> <out>                ANCSTORE -> v1 trace\n"
      "  recover <in> <out>                   salvage a torn (killed\n"
      "                                       mid-write) store tail\n"
      "  record --out=<file> [--protocol=fcat|fcat-signal|scat|dfsa|\n"
      "                        crdsa|irsa|seeded|mpr|perfect]\n"
      "         [--lambda=L] [--capacity=M] [--n=TAGS] [--runs=R] "
      "[--seed=S]\n"
      "         [--faults=PROFILE] [--demod-pool=T] [--service=PROFILE]\n"
      "                                       record a reference trace\n"
      "                                       (--service: continuous-\n"
      "                                       inventory soak; --n is the\n"
      "                                       initial population)\n");
  return 2;
}

// Prints `error`; returns the exit code of a command that fails with it.
int Fail(const std::string& error) {
  std::fprintf(stderr, "trace_inspect: %s\n", error.c_str());
  return 2;
}

void OpenReader(store::StoreReader& reader, const std::string& path) {
  const std::string err = reader.Open(path);
  if (!err.empty()) std::exit(Fail(err));
}

// The one protocol-name -> factory map, for replay and record alike. The
// demodulation pool is not part of a -signal name (any pool records the
// same bytes). Returns a null factory (and sets *error) for other names.
sim::ProtocolFactory FactoryFor(const std::string& protocol,
                                unsigned demod_pool, std::string* error) {
  // An "@label" suffix marks a faulted run; the label names the fault
  // profile the recording used, which (plus the run seed) is the entire
  // fault schedule — replay just reapplies the same profile.
  std::string base = protocol;
  std::optional<fault::FaultConfig> fault_config;
  if (const auto at = protocol.find('@'); at != std::string::npos) {
    base = protocol.substr(0, at);
    const std::string label = protocol.substr(at + 1);
    fault_config = fault::FaultProfile(label);
    if (!fault_config) {
      *error = "unknown fault profile '" + label + "' in protocol '" +
               protocol + "' (known: " + fault::FaultProfileList() + ")";
      return {};
    }
  }
  // The number after `prefix` in the base name (0 without that prefix).
  // A name that parses loosely still fails replay's header comparison.
  const auto number = [&base](std::string_view prefix) {
    return base.starts_with(prefix)
               ? static_cast<unsigned>(std::atoi(base.c_str() + prefix.size()))
               : 0u;
  };
  // The baselines and the coded-ALOHA family run at default options and
  // take no faults; their names carry at most the CRDSA degree or the MPR
  // capacity.
  if (!fault_config) {
    if (base == "DFSA") return core::MakeDfsaFactory();
    if (base == "IRSA") return core::MakeIrsaFactory();
    if (base == "SEEDED") return core::MakeSeededFactory();
    if (base == "PERFECT") return core::MakePerfectFactory();
    if (const unsigned degree = number("CRDSA-");
        degree >= 1 && degree <= 16) {
      // CRDSA-<d>: IRSA with Λ(x) = x^d at CRDSA's design load G = 0.65.
      std::vector<double> weights(degree, 0.0);
      weights.back() = 1.0;
      protocols::IrsaConfig c;
      c.degrees = protocols::DegreeDistribution(weights);
      c.target_load = 0.65;
      return core::MakeIrsaFactory({}, c);
    }
    if (const unsigned capacity = number("MPR-");
        capacity >= 1 && capacity <= 64) {
      protocols::MprConfig c;
      c.capacity = static_cast<int>(capacity);
      return core::MakeMprFactory({}, c);
    }
  }
  const fault::FaultConfig faults = fault_config.value_or(fault::FaultConfig{});
  // "FCAT-<lambda>-signal": the waveform phy at default signal options.
  if (base.ends_with("-signal") && number("FCAT-") >= 2) {
    core::FcatSignalOptions o;
    o.lambda = number("FCAT-");
    o.fault = faults;
    o.signal.demod_pool_threads = demod_pool;
    return core::MakeFcatSignalFactory(o);
  }
  if (const unsigned lambda = number("FCAT-"); lambda >= 2) {
    core::FcatOptions o;
    o.lambda = lambda;
    o.fault = faults;
    return core::MakeFcatFactory(o);
  }
  if (const unsigned lambda = number("SCAT-"); lambda >= 2) {
    core::ScatOptions o;
    o.lambda = lambda;
    o.fault = faults;
    return core::MakeScatFactory(o);
  }
  *error = "cannot build a factory for protocol '" + protocol +
           "' (supported: FCAT-<lambda>, FCAT-<lambda>-signal, "
           "SCAT-<lambda> with lambda >= 2, each optionally "
           "@<fault-profile>; DFSA, CRDSA-<d>, IRSA, SEEDED, "
           "MPR-<capacity>, PERFECT at default options)";
  return {};
}

int Summarize(const CliArgs& args) {
  DieOnUnknownFlags(args, "trace_inspect summarize", std::vector<FlagSpec>{});
  if (args.positional().size() != 2) return Usage();
  store::StoreReader reader;
  OpenReader(reader, args.positional()[1]);
  std::printf("%s: %zu run%s\n", args.positional()[1].c_str(),
              reader.runs().size(), reader.runs().size() == 1 ? "" : "s");
  for (std::size_t ri = 0; ri < reader.runs().size(); ++ri) {
    store::RunCursor cursor(reader, ri);
    std::uint64_t counts[16] = {};
    std::uint64_t missed = 0, ghosts = 0;
    std::optional<trace::TraceEvent> end, last_epoch;
    while (const trace::TraceEvent* e = cursor.Next()) {
      const auto k = static_cast<std::size_t>(e->kind);
      if (k < 16) ++counts[k];
      if (e->kind == trace::EventKind::kRunEnd) end = *e;
      if (e->kind == trace::EventKind::kDepart && e->estimate_q8) ++missed;
      if (e->kind == trace::EventKind::kDetect && e->cascade) ++ghosts;
      if (e->kind == trace::EventKind::kEpoch) last_epoch = *e;
    }
    if (!cursor.error().empty()) return Fail(cursor.error());
    const trace::RunHeader& header = cursor.header();
    std::printf(
        "run %llu: protocol=%s n_tags=%llu base_seed=%llu events=%llu\n",
        static_cast<unsigned long long>(header.run_index),
        header.protocol.c_str(),
        static_cast<unsigned long long>(header.n_tags),
        static_cast<unsigned long long>(header.base_seed),
        static_cast<unsigned long long>(reader.runs()[ri].n_events));
    std::printf("  ");
    bool first = true;
    for (std::size_t k = 1; k < 14; ++k) {
      if (counts[k] == 0) continue;
      std::printf("%s%s=%llu", first ? "" : " ",
                  trace::KindName(static_cast<trace::EventKind>(k)),
                  static_cast<unsigned long long>(counts[k]));
      first = false;
    }
    std::printf("\n");
    // Churned (service-mode) runs: the open-world ledger at a glance.
    const auto arrive = static_cast<std::size_t>(trace::EventKind::kArrive);
    const auto depart = static_cast<std::size_t>(trace::EventKind::kDepart);
    const auto detect = static_cast<std::size_t>(trace::EventKind::kDetect);
    if (counts[arrive] + counts[depart] + counts[detect] > 0) {
      std::printf("  churn: arrived=%llu departed=%llu detected=%llu "
                  "missed=%llu ghosts=%llu",
                  static_cast<unsigned long long>(counts[arrive]),
                  static_cast<unsigned long long>(counts[depart]),
                  static_cast<unsigned long long>(counts[detect] - ghosts),
                  static_cast<unsigned long long>(missed),
                  static_cast<unsigned long long>(ghosts));
      if (last_epoch) {
        std::printf(" final_population=%llu staleness_p99=%.3f",
                    static_cast<unsigned long long>(last_epoch->n_c),
                    static_cast<double>(last_epoch->estimate_q8) /
                        trace::kEstimateScale);
      }
      std::printf("\n");
    }
    if (end) std::printf("  %s\n", trace::Describe(*end).c_str());
  }
  return 0;
}

int Filter(const CliArgs& args) {
  DieOnUnknownFlags(
      args, "trace_inspect filter",
      std::vector<FlagSpec>{
          {"run", "only this run index"},
          {"kind", "only this event kind (slot, frame, record_open, "
                   "record_resolve, ack, inject, tdma_slot, run_end, "
                   "fault, arrive, depart, detect, epoch)"},
          {"reader", "only this reader id (deployments: 1..R)"},
          {"limit", "stop after this many events (default 100; 0 = all)"},
          {"format", "text (default) or jsonl"},
      });
  if (args.positional().size() != 2) return Usage();
  store::StoreReader reader;
  OpenReader(reader, args.positional()[1]);

  const std::int64_t want_run = args.GetInt("run", -1);
  const std::int64_t want_reader = args.GetInt("reader", -1);
  const std::string want_kind = args.GetString("kind", "");
  const std::int64_t limit = args.GetInt("limit", 100);
  const std::string format = args.GetString("format", "text");
  if (format != "text" && format != "jsonl") {
    return Fail("bad --format=" + format);
  }

  std::int64_t printed = 0;
  for (std::size_t ri = 0; ri < reader.runs().size(); ++ri) {
    const trace::RunHeader& header = reader.runs()[ri].header;
    if (want_run >= 0 &&
        header.run_index != static_cast<std::uint64_t>(want_run)) {
      continue;
    }
    if (format == "jsonl") {
      std::printf("%s\n", trace::RunHeaderToJson(header).c_str());
    } else {
      std::printf("# run %llu (%s, n_tags=%llu)\n",
                  static_cast<unsigned long long>(header.run_index),
                  header.protocol.c_str(),
                  static_cast<unsigned long long>(header.n_tags));
    }
    store::RunCursor cursor(reader, ri);
    while (const trace::TraceEvent* e = cursor.Next()) {
      if (!want_kind.empty() && want_kind != trace::KindName(e->kind)) continue;
      if (want_reader >= 0 &&
          e->reader != static_cast<std::uint32_t>(want_reader)) {
        continue;
      }
      if (format == "jsonl") {
        std::printf("%s\n", trace::EventToJson(*e).c_str());
      } else {
        std::printf("%s\n", trace::Describe(*e).c_str());
      }
      if (limit > 0 && ++printed >= limit) {
        std::printf("... (--limit=%lld reached)\n",
                    static_cast<long long>(limit));
        return 0;
      }
    }
    if (!cursor.error().empty()) return Fail(cursor.error());
  }
  return 0;
}

// Streaming diff: each run of b is pushed through a trace::DiffSink
// against the same run of a, both walked block by block (never fully
// resident), and the first divergence is reported with its (run, frame,
// slot) coordinates. A read error in either file is an error (exit 2),
// never a verdict.
int Diff(const CliArgs& args) {
  DieOnUnknownFlags(args, "trace_inspect diff", std::vector<FlagSpec>{});
  if (args.positional().size() != 3) return Usage();
  store::StoreReader a, b;
  OpenReader(a, args.positional()[1]);
  OpenReader(b, args.positional()[2]);
  if (a.runs().size() != b.runs().size()) {
    std::printf("divergent: %zu runs vs %zu runs\n", a.runs().size(),
                b.runs().size());
    return 1;
  }
  for (std::size_t ri = 0; ri < a.runs().size(); ++ri) {
    store::RunCursor ca(a, ri), cb(b, ri);
    trace::DiffSink sink(ca.header(), [&ca] { return ca.Next(); }, ri);
    if (!cb.PushTo(&sink).empty()) return Fail(cb.error());
    if (!ca.error().empty()) return Fail(ca.error());
    const trace::TraceDiff& diff = sink.diff();
    if (diff.identical) continue;
    if (diff.a && diff.b) {
      std::printf(
          "divergent at run %zu, event %zu (frame %llu, slot %llu):\n"
          "  a: %s\n  b: %s\n",
          ri, diff.event_index,
          static_cast<unsigned long long>(diff.a->frame),
          static_cast<unsigned long long>(diff.a->slot),
          trace::Describe(*diff.a).c_str(), trace::Describe(*diff.b).c_str());
    } else if (diff.a || diff.b) {
      std::printf("divergent at run %zu, event %zu: %s ends early\n", ri,
                  diff.event_index, diff.a ? "b" : "a");
    } else {
      std::printf("divergent at run %zu: headers differ\n", ri);
      for (const store::RunCursor* c : {&ca, &cb}) {
        const trace::RunHeader& h = c->header();
        std::printf("  %s: protocol=%s run_index=%llu base_seed=%llu "
                    "n_tags=%llu\n",
                    c == &ca ? "a" : "b", h.protocol.c_str(),
                    static_cast<unsigned long long>(h.run_index),
                    static_cast<unsigned long long>(h.base_seed),
                    static_cast<unsigned long long>(h.n_tags));
      }
    }
    return 1;
  }
  std::printf("identical: %zu runs\n", a.runs().size());
  return 0;
}

int TimeSeries(const CliArgs& args) {
  DieOnUnknownFlags(args, "trace_inspect timeseries",
                    std::vector<FlagSpec>{
                        {"run", "run index to extract (default 0)"},
                        {"reader", "reader id (default 0)"},
                        {"csv", "write CSV here instead of stdout"},
                    });
  if (args.positional().size() != 2) return Usage();
  store::StoreReader reader;
  OpenReader(reader, args.positional()[1]);
  const auto want_run = static_cast<std::uint64_t>(args.GetInt("run", 0));
  for (std::size_t ri = 0; ri < reader.runs().size(); ++ri) {
    if (reader.runs()[ri].header.run_index != want_run) continue;
    store::RunCursor cursor(reader, ri);
    trace::FrameSeriesSink sink(
        static_cast<std::uint32_t>(args.GetInt("reader", 0)));
    if (!cursor.PushTo(&sink).empty()) return Fail(cursor.error());
    const std::string csv_path = args.GetString("csv", "");
    if (csv_path.empty()) {
      std::fputs(trace::FrameSeriesCsv(sink.series()).c_str(), stdout);
      return 0;
    }
    const std::string err = trace::WriteFrameSeriesCsv(sink.series(), csv_path);
    if (!err.empty()) return Fail(err);
    std::printf("wrote %zu frames to %s\n", sink.series().size(),
                csv_path.c_str());
    return 0;
  }
  return Fail("no run " + std::to_string(want_run) + " in " +
              args.positional()[1]);
}

// Re-drives each recorded run straight into a comparison with its
// recorded events: neither run is ever resident.
int Replay(const CliArgs& args) {
  DieOnUnknownFlags(args, "trace_inspect replay", std::vector<FlagSpec>{});
  if (args.positional().size() != 2) return Usage();
  store::StoreReader reader;
  OpenReader(reader, args.positional()[1]);
  for (std::size_t ri = 0; ri < reader.runs().size(); ++ri) {
    store::RunCursor cursor(reader, ri);
    const trace::RunHeader& header = cursor.header();
    std::string err;
    // Service-mode runs carry a "~<profile>" suffix; the base name still
    // selects the factory, the verifier picks the soak driver.
    const sim::ProtocolFactory factory = FactoryFor(
        service::ServiceBaseName(header.protocol), /*demod_pool=*/0, &err);
    if (!factory) return Fail(err);
    const service::ReplayReport report = service::VerifyReplay(
        header, [&cursor] { return cursor.Next(); }, factory);
    if (!cursor.error().empty()) return Fail(cursor.error());
    std::printf("run %llu: %s\n",
                static_cast<unsigned long long>(header.run_index),
                report.message.c_str());
    if (!report.ok) return 1;
  }
  return 0;
}

void PrintSummary(const store::StoreReader& reader, const std::string& path) {
  const store::StoreSummary s = store::Summarize(reader);
  std::printf("%s: %s, %zu run%s, %llu events, %llu bytes",
              path.c_str(), s.legacy ? "v1 trace" : "store",
              s.runs.size(), s.runs.size() == 1 ? "" : "s",
              static_cast<unsigned long long>(s.n_events),
              static_cast<unsigned long long>(s.file_bytes));
  if (!s.legacy && s.stored_bytes > 0) {
    std::printf(" (payload %.2fx)", static_cast<double>(s.raw_bytes) /
                                        static_cast<double>(s.stored_bytes));
  }
  std::printf("\n");
  for (const store::RunSummary& r : s.runs) {
    std::printf(
        "run %llu: protocol=%s n_tags=%llu events=%llu blocks=%llu "
        "frames=%llu last_slot=%llu\n"
        "  acks=%llu arrives=%llu departs=%llu detects=%llu "
        "population=%llu\n",
        static_cast<unsigned long long>(r.header.run_index),
        r.header.protocol.c_str(),
        static_cast<unsigned long long>(r.header.n_tags),
        static_cast<unsigned long long>(r.n_events),
        static_cast<unsigned long long>(r.n_blocks),
        static_cast<unsigned long long>(r.max_frame),
        static_cast<unsigned long long>(r.last_slot),
        static_cast<unsigned long long>(r.acks),
        static_cast<unsigned long long>(r.arrives),
        static_cast<unsigned long long>(r.departs),
        static_cast<unsigned long long>(r.detects),
        static_cast<unsigned long long>(r.final_population));
  }
}

// One query against an open reader; shared by `query` (one-shot) and
// `serve` (REPL). Returns 0/1/2 like a command.
int RunQuery(store::StoreReader& reader, const std::string& path,
             const std::string& op, std::size_t run, std::uint64_t lo,
             std::uint64_t hi, std::int64_t limit) {
  if (op == "summarize") {
    PrintSummary(reader, path);
    return 0;
  }
  if (op == "blocks") {
    std::fputs(store::BlockTimeseriesCsv(reader, run).c_str(), stdout);
    return 0;
  }
  if (op == "frames" || op == "epochs") {
    std::vector<trace::TraceEvent> events;
    std::string err;
    if (op == "frames") {
      store::WindowSeed seed;
      err = store::QueryFrameWindow(reader, run, lo, hi, &events, &seed);
      if (err.empty()) {
        std::printf(
            "# window seed: acks=%llu arrives=%llu departs=%llu "
            "detects=%llu population=%llu\n",
            static_cast<unsigned long long>(seed.acks),
            static_cast<unsigned long long>(seed.arrives),
            static_cast<unsigned long long>(seed.departs),
            static_cast<unsigned long long>(seed.detects),
            static_cast<unsigned long long>(seed.population));
      }
    } else {
      err = store::QueryEpochWindow(reader, run, lo, hi, &events);
    }
    if (!err.empty()) return Fail(err);
    std::int64_t printed = 0;
    for (const trace::TraceEvent& e : events) {
      std::printf("%s\n", trace::Describe(e).c_str());
      if (limit > 0 && ++printed >= limit) {
        std::printf("... (--limit=%lld reached, %zu matched)\n",
                    static_cast<long long>(limit), events.size());
        break;
      }
    }
    return 0;
  }
  return Fail("bad op '" + op + "' (summarize, blocks, frames, epochs)");
}

int Query(const CliArgs& args) {
  DieOnUnknownFlags(args, "trace_inspect query",
                    std::vector<FlagSpec>{
                        {"op", "summarize (default), blocks, frames, epochs"},
                        {"run", "run ordinal (default 0)"},
                        {"lo", "window lower bound (frame/epoch, default 0)"},
                        {"hi", "window upper bound (default: no bound)"},
                        {"limit", "stop after this many events (default "
                                  "100; 0 = all)"},
                    });
  if (args.positional().size() != 2) return Usage();
  store::StoreReader reader;
  OpenReader(reader, args.positional()[1]);
  return RunQuery(reader, args.positional()[1],
                  args.GetString("op", "summarize"),
                  static_cast<std::size_t>(args.GetInt("run", 0)),
                  static_cast<std::uint64_t>(args.GetInt("lo", 0)),
                  static_cast<std::uint64_t>(
                      args.GetInt("hi", std::numeric_limits<std::int64_t>::max())),
                  args.GetInt("limit", 100));
}

// Line-oriented query server: indexes the file once, then answers
// queries from stdin until EOF — the cheap "serve" mode for dashboards
// and scripts that issue many windowed queries against one soak trace.
//   summarize | blocks [run] | frames [run lo hi] | epochs [run lo hi]
int Serve(const CliArgs& args) {
  DieOnUnknownFlags(args, "trace_inspect serve", std::vector<FlagSpec>{});
  if (args.positional().size() != 2) return Usage();
  store::StoreReader reader;
  OpenReader(reader, args.positional()[1]);
  std::printf("serving %s (%zu runs, %zu blocks); "
              "summarize | blocks [run] | frames [run lo hi] | "
              "epochs [run lo hi] | quit\n",
              args.positional()[1].c_str(), reader.runs().size(),
              reader.blocks().size());
  std::fflush(stdout);
  char line[256];
  while (std::fgets(line, sizeof line, stdin) != nullptr) {
    char op[32] = "";
    unsigned long long run = 0, lo = 0;
    unsigned long long hi = std::numeric_limits<unsigned long long>::max();
    const int n = std::sscanf(line, "%31s %llu %llu %llu", op, &run, &lo, &hi);
    if (n < 1) continue;
    const std::string op_str(op);
    if (op_str == "quit" || op_str == "exit") break;
    RunQuery(reader, args.positional()[1], op_str,
             static_cast<std::size_t>(run), lo, hi, /*limit=*/0);
    std::printf("ok\n");
    std::fflush(stdout);
  }
  return 0;
}

int Compress(const CliArgs& args) {
  DieOnUnknownFlags(
      args, "trace_inspect compress",
      std::vector<FlagSpec>{
          {"block-events", "events per block (default 4096)"},
          {"raw", "store blocks uncompressed (ratio baseline)"},
      });
  if (args.positional().size() != 3) return Usage();
  store::StoreReader reader;
  OpenReader(reader, args.positional()[1]);

  store::StoreWriterOptions options;
  options.block_events =
      static_cast<std::size_t>(args.GetInt("block-events", 4096));
  options.compress = !args.GetBool("raw");
  // Stream block by block: neither file is ever fully resident.
  store::StoreFileSink sink(args.positional()[2], options);
  std::string err = sink.error();
  for (std::size_t ri = 0; err.empty() && ri < reader.runs().size(); ++ri) {
    err = store::RunCursor(reader, ri).PushTo(&sink);
  }
  if (err.empty()) err = sink.Finish();
  if (!err.empty()) return Fail(err);
  std::printf("%s: %llu bytes -> %s: %llu bytes (%.2fx)\n",
              args.positional()[1].c_str(),
              static_cast<unsigned long long>(reader.file_bytes()),
              args.positional()[2].c_str(),
              static_cast<unsigned long long>(sink.writer().bytes_written()),
              static_cast<double>(reader.file_bytes()) /
                  static_cast<double>(sink.writer().bytes_written()));
  return 0;
}

int Decompress(const CliArgs& args) {
  DieOnUnknownFlags(args, "trace_inspect decompress", std::vector<FlagSpec>{});
  if (args.positional().size() != 3) return Usage();
  // The v1 encoder works on whole runs, so this command loads the file.
  trace::TraceFile file;
  std::string err = store::ReadStoreFile(args.positional()[1], &file);
  if (!err.empty()) err = args.positional()[1] + ": " + err;
  if (err.empty()) {
    err = WriteWholeFile(args.positional()[2], trace::EncodeTrace(file));
  }
  if (!err.empty()) return Fail(err);
  std::printf("wrote %zu run%s to %s\n", file.runs.size(),
              file.runs.size() == 1 ? "" : "s", args.positional()[2].c_str());
  return 0;
}

int Recover(const CliArgs& args) {
  DieOnUnknownFlags(args, "trace_inspect recover", std::vector<FlagSpec>{});
  if (args.positional().size() != 3) return Usage();
  const std::string& in = args.positional()[1];
  const std::string& out = args.positional()[2];
  store::RecoverInfo info;
  const std::string err = store::RecoverStoreFile(in, out, &info);
  if (!err.empty()) return Fail(err);
  std::printf("%s: %s%s\n", in.c_str(),
              info.tail_torn ? "torn tail" : "clean boundary",
              info.had_footer ? ", footer present" : ", no footer");
  std::printf(
      "salvaged %llu run%s, %llu block%s, %llu event%s (%llu bytes); "
      "discarded %llu byte%s -> %s\n",
      static_cast<unsigned long long>(info.salvaged_runs),
      info.salvaged_runs == 1 ? "" : "s",
      static_cast<unsigned long long>(info.salvaged_blocks),
      info.salvaged_blocks == 1 ? "" : "s",
      static_cast<unsigned long long>(info.salvaged_events),
      info.salvaged_events == 1 ? "" : "s",
      static_cast<unsigned long long>(info.salvaged_bytes),
      static_cast<unsigned long long>(info.discarded_bytes),
      info.discarded_bytes == 1 ? "" : "s", out.c_str());
  return 0;
}

int Record(const CliArgs& args) {
  DieOnUnknownFlags(args, "trace_inspect record",
                    std::vector<FlagSpec>{
                        {"out", "output ANCSTORE file (truncated)"},
                        {"protocol",
                         "fcat (default), fcat-signal, scat, dfsa, crdsa "
                         "(CRDSA-2), irsa, seeded, mpr or perfect"},
                        {"lambda", "FCAT/SCAT lambda (default 2)"},
                        {"capacity", "mpr: reader MPR capacity (default 4)"},
                        {"n", "population size (default 200)"},
                        {"runs", "runs to record (default 1)"},
                        {"seed", "base seed (default 1)"},
                        {"faults", "fault profile to inject (fcat, fcat-signal, scat)"},
                        {"demod-pool",
                         "fcat-signal: demod worker threads (default 0; "
                         "any value records the same bytes)"},
                        {"service",
                         "record a continuous-inventory soak under this "
                         "service profile (smoke, soak, batch, flow); "
                         "--n becomes the initial population"},
                    });
  const std::string out = args.GetString("out", "");
  if (out.empty() || args.positional().size() != 1) return Usage();
  // Name the run as the protocol will record it, then build the factory
  // from that name exactly as replay will.
  const std::string protocol = args.GetString("protocol", "fcat");
  const std::string lambda = std::to_string(args.GetInt("lambda", 2));
  const std::map<std::string, std::string> names = {
      {"fcat", "FCAT-" + lambda},
      {"fcat-signal", "FCAT-" + lambda + "-signal"},
      {"scat", "SCAT-" + lambda},
      {"dfsa", "DFSA"},
      {"crdsa", "CRDSA-2"},
      {"irsa", "IRSA"},
      {"seeded", "SEEDED"},
      {"mpr", "MPR-" + std::to_string(args.GetInt(
                           "capacity", protocols::MprConfig{}.capacity))},
      {"perfect", "PERFECT"},
  };
  const auto name = names.find(protocol);
  if (name == names.end()) return Fail("bad --protocol=" + protocol);
  const std::string faults = args.GetString("faults", "");
  std::string err;
  const sim::ProtocolFactory factory =
      FactoryFor(faults.empty() ? name->second : name->second + "@" + faults,
                 static_cast<unsigned>(args.GetInt("demod-pool", 0)), &err);
  if (!factory) return Fail(err);

  const std::string service = args.GetString("service", "");
  const auto runs = static_cast<std::size_t>(args.GetInt("runs", 1));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  service::ServiceConfig config;
  if (!service.empty() && !service::LookupServiceProfile(service, &config)) {
    return Fail("unknown --service=" + service +
                " (known: " + service::ServiceProfileList() + ")");
  }
  // Runs stream into the store as they finish.
  store::StoreFileSink sink(out);
  if (!sink.error().empty()) return Fail(sink.error());
  if (!service.empty()) {
    service::SoakOptions so;
    so.n_initial = static_cast<std::size_t>(args.GetInt("n", 60));
    so.runs = runs;
    so.base_seed = seed;
    so.trace = &sink;
    service::RunSoakExperiment(factory, config, so);
  } else {
    sim::ExperimentOptions eo;
    eo.n_tags = static_cast<std::size_t>(args.GetInt("n", 200));
    eo.runs = runs;
    eo.base_seed = seed;
    eo.trace = &sink;
    sim::RunExperiment(factory, eo);
  }

  err = sink.Finish();
  if (!err.empty()) return Fail(out + ": " + err);
  std::uint64_t events = 0;
  for (const store::StoredRun& run : sink.writer().runs()) {
    events += run.n_events;
  }
  std::printf("recorded %zu %srun%s (%llu events) to %s\n", runs,
              service.empty() ? "" : "service ", runs == 1 ? "" : "s",
              static_cast<unsigned long long>(events), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.positional().empty()) return Usage();
  const std::string& command = args.positional()[0];
  if (command == "summarize") return Summarize(args);
  if (command == "filter") return Filter(args);
  if (command == "diff") return Diff(args);
  if (command == "timeseries") return TimeSeries(args);
  if (command == "replay") return Replay(args);
  if (command == "query") return Query(args);
  if (command == "serve") return Serve(args);
  if (command == "compress") return Compress(args);
  if (command == "decompress") return Decompress(args);
  if (command == "recover") return Recover(args);
  if (command == "record") return Record(args);
  std::fprintf(stderr, "trace_inspect: unknown command '%s'\n",
               command.c_str());
  return Usage();
}
