// Continuous-inventory soak: the service-mode SLO table (src/service).
//
// Drives FCAT-2 (fault-free and under the @chaos fault profile) plus the
// coded-ALOHA IRSA / SEEDED readers through a long open-world soak —
// Poisson arrivals and departures churning the live population while the
// service re-arms inventory round after round — and reports the
// operational SLOs: time-to-detect p50/p99, inventory staleness p99,
// missed-tag rate and ghost-read rate. No paper analogue: the paper
// measures closed one-shot inventories; this is the "leave it running"
// regime those results feed into.
//
// Two invariants are checked every invocation and printed at the end:
// conservation (arrived == detected + missed + undetected-at-end, per
// run) and zero open phy records after shutdown. Under --faults=off the
// missed count must be 0 (every tag dwells past the detection floor);
// under @chaos the missed rate must stay bounded, not zero.
//
//   --profile=P   service profile: smoke | soak | batch | flow
//                 (default soak: >= 1e5-slot budget per run)
//   --n=N         initial population per run (default 50)
//   --faults=F    off | chaos | sweep (default sweep; chaos is FCAT-only
//                 — the coded-ALOHA readers take no fault config)
//   --trace=PATH  record every cell's runs into one indexed ANCSTORE
//                 file (cells in table order; `trace_inspect decompress`
//                 turns it into a v1 trace)
//   --kill-at=K   crash-recovery cell (src/service checkpoints): run the
//                 FCAT-2 cell's run 0 once uninterrupted and once killed
//                 dead at slot K then resumed from its last checkpoint,
//                 and require trace file + report byte-identity
#include "bench_common.h"

#include <cstdio>
#include <memory>

#include "common/file_io.h"
#include "common/table.h"
#include "fault/injector.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "store/container.h"

namespace {

using namespace anc;

struct CellResult {
  service::SoakAggregate agg;
  std::string label;
};

service::SoakAggregate RunCell(const sim::ProtocolFactory& factory,
                               const service::ServiceConfig& config,
                               const bench::HarnessOptions& opts,
                               std::size_t n_initial,
                               const std::string& label,
                               trace::TraceSink* trace) {
  service::SoakOptions so;
  so.n_initial = n_initial;
  so.runs = opts.runs;
  so.base_seed = opts.seed;
  so.n_threads = opts.threads;
  so.trace = trace;
  const auto start = std::chrono::steady_clock::now();
  const service::SoakAggregate agg =
      service::RunSoakExperiment(factory, config, so);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Service-mode JSON point: SLO quantiles + the ledger totals the CI
  // schema gate checks (staleness_p99 / missed_rate present and finite).
  bench::detail::JsonState& j = bench::detail::Json();
  if (!j.path.empty()) {
    using bench::detail::JsonStats;
    using bench::detail::JsonStr;
    std::string point =
        "{\"label\":" + JsonStr(label) +
        ",\"profile\":" + JsonStr(config.label) +
        ",\"n_initial\":" + std::to_string(n_initial) +
        ",\"runs\":" + std::to_string(so.runs) +
        ",\"wall_seconds\":" + bench::detail::JsonNum(wall) +
        ",\"slo\":{\"detect_p50\":" + JsonStats(agg.detect_p50) +
        ",\"detect_p99\":" + JsonStats(agg.detect_p99) +
        ",\"staleness_p99\":" + JsonStats(agg.staleness_p99) +
        ",\"missed_rate\":" + JsonStats(agg.missed_rate) +
        ",\"ghost_rate\":" + JsonStats(agg.ghost_rate) +
        ",\"mean_population\":" + JsonStats(agg.mean_population) +
        ",\"arrived\":" + JsonStats(agg.arrived) +
        ",\"departed\":" + JsonStats(agg.departed) +
        ",\"detected\":" + JsonStats(agg.detected) +
        ",\"slots\":" + JsonStats(agg.slots) +
        ",\"rounds\":" + JsonStats(agg.rounds) +
        ",\"elapsed_seconds\":" + JsonStats(agg.elapsed_seconds) + "}" +
        ",\"missed_total\":" + std::to_string(agg.missed_total) +
        ",\"ghost_detections_total\":" +
        std::to_string(agg.ghost_detections_total) +
        ",\"suppressed_arrivals\":" +
        std::to_string(agg.suppressed_arrivals_total) +
        ",\"conservation_failures\":" +
        std::to_string(agg.conservation_failures) +
        ",\"open_records_after_shutdown\":" +
        std::to_string(agg.open_records_after_shutdown) + "}";
    j.points.push_back(std::move(point));
  }
  return agg;
}

bool FilesEqual(const std::string& a, const std::string& b) {
  std::string da, db;
  return ReadWholeFile(a, &da).empty() && ReadWholeFile(b, &db).empty() &&
         da == db;
}

// --kill-at cell: run FCAT-2 run 0 uninterrupted, then again with a
// SIGKILL-emulating abort at the given slot followed by a checkpoint
// resume, and require the torn-then-resumed trace file and report to be
// byte-identical to the uninterrupted ones. Returns true on identity.
bool RunKillAtCell(const bench::HarnessOptions& opts,
                   const service::ServiceConfig& config,
                   std::size_t n_initial, std::uint64_t kill_at) {
  const sim::ProtocolFactory factory =
      core::MakeFcatFactory(bench::FcatFor(2));
  service::SoakOptions so;
  so.n_initial = n_initial;
  so.runs = 1;
  so.base_seed = opts.seed;

  const bench::ScratchDir scratch("bench_soak_killat");
  if (scratch.path().empty()) {
    std::fprintf(stderr, "kill-at cell: cannot create a scratch directory\n");
    return false;
  }
  const std::string ref_path = scratch.File("ref.ancs");
  const std::string torn_path = scratch.File("torn.ancs");
  const std::string ref_ckpt = scratch.File("ref.ckpt");
  const std::string ckpt = scratch.File("resume.ckpt");
  store::StoreWriterOptions wo;
  wo.sync = store::SyncPolicy::kFlush;

  const auto start = std::chrono::steady_clock::now();

  service::ResumableOptions res;
  res.checkpoint_every_epochs = 1;
  res.checkpoint_path = ref_ckpt;
  service::SloReport ref_report;
  {
    store::StoreFileSink sink(ref_path, wo);
    ref_report =
        service::RunSoakResumable(factory, config, so, 0, &sink, res);
    if (!sink.Finish().empty()) return false;
  }

  bool aborted = false;
  {
    auto sink = std::make_unique<store::StoreFileSink>(torn_path, wo);
    service::ResumableOptions kr = res;
    kr.checkpoint_path = ckpt;
    kr.abort_before_slot = kill_at;
    service::RunSoakResumable(factory, config, so, 0, sink.get(), kr,
                              &aborted);
    // Dropped unfinished: the file keeps its torn tail and the
    // checkpoint its last durable offset — the post-SIGKILL disk state.
  }

  service::SloReport resumed;
  std::string err;
  if (!aborted) {
    err = "kill slot never reached (choose --kill-at within the run)";
  } else {
    std::unique_ptr<store::StoreFileSink> rsink;
    service::ResumableOptions rr = res;
    rr.checkpoint_path = ckpt;
    err = service::ResumeSoak(factory, config, so, 0, ckpt, torn_path, wo,
                              rr, &resumed, &rsink);
    if (err.empty() && rsink != nullptr) err = rsink->Finish();
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  bool identical = false;
  if (err.empty()) {
    std::string ra, rb;
    service::PutSloReport(ra, ref_report);
    service::PutSloReport(rb, resumed);
    identical = ra == rb && FilesEqual(ref_path, torn_path);
  } else {
    std::fprintf(stderr, "kill-at cell failed: %s\n", err.c_str());
  }

  bench::detail::JsonState& j = bench::detail::Json();
  if (!j.path.empty()) {
    j.points.push_back(
        "{\"label\":\"FCAT-2@kill\",\"profile\":" +
        bench::detail::JsonStr(config.label) +
        ",\"kill_at\":" + std::to_string(kill_at) +
        ",\"checkpoint_every_epochs\":1,\"killed\":" +
        (aborted ? std::string("true") : std::string("false")) +
        ",\"resume_identical\":" +
        (identical ? std::string("true") : std::string("false")) +
        ",\"wall_seconds\":" + bench::detail::JsonNum(wall) + "}");
  }
  std::printf("kill-at cell: killed at slot %llu, resumed from last "
              "checkpoint: trace+report %s\n",
              static_cast<unsigned long long>(kill_at),
              identical ? "byte-identical" : "DIVERGED");

  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anc;
  const CliArgs args(argc, argv);
  bench::RequireKnownFlags(
      args, argv[0],
      {{"profile", "service profile: smoke | soak | batch | flow"},
       {"n", "initial population per run (default 50)"},
       {"faults", "off | chaos | sweep (chaos is FCAT-only)"},
       {"kill-at", "crash-recovery cell: kill run 0 at this slot, resume "
                   "from checkpoint, verify byte-identity"}});
  const auto opts = bench::ParseHarness(args, 3);
  bench::PrintHeader("Continuous-inventory soak: service-mode SLOs",
                     "service subsystem, no paper analogue", opts);

  const std::string profile = args.GetString("profile", "soak");
  service::ServiceConfig config;
  if (!service::LookupServiceProfile(profile, &config)) {
    std::fprintf(stderr, "unknown --profile=%s (known: %s)\n", profile.c_str(),
                 service::ServiceProfileList().c_str());
    return 2;
  }
  const auto n_initial = static_cast<std::size_t>(args.GetInt("n", 50));
  const std::string faults = args.GetString("faults", "sweep");
  if (faults != "off" && faults != "chaos" && faults != "sweep") {
    std::fprintf(stderr, "unknown --faults=%s (off | chaos | sweep)\n",
                 faults.c_str());
    return 2;
  }
  // One ANCSTORE container spanning every cell's runs (cells append in
  // table order); runs stream into it as they finish.
  std::unique_ptr<store::StoreFileSink> store;
  if (!opts.trace_path.empty()) {
    store = std::make_unique<store::StoreFileSink>(opts.trace_path);
    if (!store->error().empty()) {
      std::fprintf(stderr, "cannot open --trace store %s: %s\n",
                   opts.trace_path.c_str(), store->error().c_str());
      return 2;
    }
  }

  std::vector<std::pair<std::string, sim::ProtocolFactory>> cells;
  if (faults != "chaos") {
    cells.emplace_back("FCAT-2", core::MakeFcatFactory(bench::FcatFor(2)));
    cells.emplace_back("IRSA", core::MakeIrsaFactory());
    cells.emplace_back("SEEDED", core::MakeSeededFactory());
  }
  if (faults != "off") {
    core::FcatOptions o = bench::FcatFor(2);
    o.fault = *fault::FaultProfile("chaos");
    cells.emplace_back("FCAT-2@chaos", core::MakeFcatFactory(o));
  }

  TextTable table({"protocol", "detect p50", "detect p99", "stale p99",
                   "missed", "miss rate", "ghosts", "pop", "rounds"});
  std::uint64_t conservation_failures = 0;
  std::uint64_t open_records = 0;
  std::uint64_t unsupported = 0;
  for (const auto& [label, factory] : cells) {
    const service::SoakAggregate agg =
        RunCell(factory, config, opts, n_initial, label, store.get());
    table.AddRow({label, TextTable::Num(agg.detect_p50.mean(), 1),
                  TextTable::Num(agg.detect_p99.mean(), 1),
                  TextTable::Num(agg.staleness_p99.mean(), 1),
                  std::to_string(agg.missed_total),
                  TextTable::Num(agg.missed_rate.mean(), 4),
                  std::to_string(agg.ghost_detections_total),
                  TextTable::Num(agg.mean_population.mean(), 1),
                  TextTable::Num(agg.rounds.mean(), 0)});
    conservation_failures += agg.conservation_failures;
    open_records += agg.open_records_after_shutdown;
    unsupported += agg.churn_unsupported_runs;
  }

  if (store != nullptr) {
    const std::string err = store->Finish();
    if (err.empty()) {
      const store::StoreWriter& w = store->writer();
      std::printf("trace store: %zu runs, %zu blocks, %llu bytes -> %s\n",
                  w.runs().size(), w.blocks().size(),
                  static_cast<unsigned long long>(w.bytes_written()),
                  opts.trace_path.c_str());
    } else {
      std::fprintf(stderr, "warning: trace store finish failed: %s\n",
                   err.c_str());
    }
  }

  bool kill_cell_ok = true;
  if (args.Has("kill-at")) {
    kill_cell_ok = RunKillAtCell(
        opts, config, n_initial,
        static_cast<std::uint64_t>(args.GetInt("kill-at", 0)));
  }

  std::printf("%s\n", table.Render().c_str());
  std::printf("profile %s: %llu-slot budget, churn stops at slot %llu\n",
              config.label.c_str(),
              static_cast<unsigned long long>(config.max_slots),
              static_cast<unsigned long long>(config.churn_stop_slot));
  std::printf("invariants: conservation_failures=%llu "
              "open_records_after_shutdown=%llu churn_unsupported_runs=%llu "
              "(all must be 0)\n",
              static_cast<unsigned long long>(conservation_failures),
              static_cast<unsigned long long>(open_records),
              static_cast<unsigned long long>(unsupported));
  std::printf("fault-free cells must report missed=0 (every tag dwells past "
              "the detection floor); @chaos sheds latency and may miss, "
              "boundedly.\n");
  return (conservation_failures || open_records || unsupported ||
          !kill_cell_ok)
             ? 1
             : 0;
}
