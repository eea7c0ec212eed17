// Continuous-inventory service mode: a long-running driver that wraps any
// churn-capable sim::Protocol (single reader or a whole deployment) and
// keeps inventorying while an open-world churn model mutates the live tag
// population between slots.
//
// Where the experiment runner (sim/runner.h) asks "how fast does one
// closed inventory round finish?", the service asks the operational
// questions a warehouse cares about: how quickly is a newly-arrived tag
// first detected (time-to-detect p50/p99), how stale is the reported
// inventory (staleness p99), what fraction of tags pass through entirely
// unseen (missed rate), and how often does the report still list tags
// that already left (ghost rate). Quantiles come from streaming P²
// estimators (common/stats.h) — the service never buffers per-tag
// latency samples.
//
// Determinism contract (same as the runner's): run i of a soak derives
// every stream from the runner's seed rule sim::RunRng(base_seed, i) —
// population, protocol and churn schedule each get their own Split() in
// that order — so a soak run replays event-for-event from its trace
// header alone. The service profile label rides the protocol name
// ("FCAT-2~soak"); see service/replay.h. One driver (service/soak.cpp)
// derives and drives every soak run, resumable or not.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/digest_index.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/tag_id.h"
#include "service/churn.h"
#include "sim/metrics.h"
#include "sim/protocol.h"
#include "sim/runner.h"
#include "store/snapshot.h"
#include "trace/sink.h"

namespace anc::service {

struct ServiceConfig {
  ChurnConfig churn{};
  // Churn (arrivals) stops here; the service then drains — keeps running
  // until every still-present tag has been detected — before the budget.
  std::uint64_t churn_stop_slot = 90000;
  // Hard slot budget for the whole service run.
  std::uint64_t max_slots = 100000;
  // Inventory snapshot (kEpoch trace event + staleness sampling) cadence.
  std::uint64_t epoch_slots = 2000;
  // A departed tag still counts as reported-present (a ghost) while its
  // last detection is at most this many slots old.
  std::uint64_t report_horizon_slots = 6000;
  // Re-arm finished protocols with refresh (forget read flags), so sweeps
  // keep re-detecting present tags and last-seen stays fresh. Without it
  // rounds only chase still-unread tags and staleness grows unboundedly.
  bool reinventory = true;
  // Canned-profile label; rides the protocol name ("FCAT-2~soak") so
  // trace replay can reconstruct the config. Empty = ad-hoc config
  // (summarizes and diffs fine, cannot be replayed by name).
  std::string label;
};

// Canned profiles ("smoke", "soak", "batch", "flow"). Returns false for
// unknown labels.
bool LookupServiceProfile(std::string_view label, ServiceConfig* out);
std::string ServiceProfileList();

// Everything one service run measures. Counter semantics partition the
// arrivals exactly (ConservationOk below): a tag that ever arrived is
// either detected while present, departed without ever being detected,
// or still present-and-undetected when the budget ends.
struct SloReport {
  std::uint64_t slots = 0;   // service slots actually driven
  std::uint64_t rounds = 0;  // inventory re-arms (BeginInventoryRound)
  std::uint64_t epochs = 0;  // snapshots emitted

  std::uint64_t arrived = 0;  // includes the initial population
  std::uint64_t departed = 0;
  std::uint64_t detected = 0;          // first detections while present
  std::uint64_t missed_departed = 0;   // departed, never detected present
  std::uint64_t undetected_at_end = 0; // still present, never detected
  std::uint64_t ghost_detections = 0;  // first detection after departure
  std::uint64_t detections_total = 0;  // incl. refresh re-detections
  std::uint64_t suppressed_arrivals = 0;  // universe pool exhausted

  // SLO metrics. Latencies/staleness in service slots.
  double detect_p50 = 0.0;
  double detect_p99 = 0.0;
  double staleness_p99 = 0.0;
  double mean_population = 0.0;  // sampled at each epoch
  double missed_rate = 0.0;      // missed_departed / arrived
  double ghost_rate = 0.0;       // mean per-epoch ghosts / reported tags

  std::size_t open_phy_records_end = 0;  // after Shutdown(); must be 0
  bool churn_supported = false;
  sim::RunMetrics metrics;  // wrapped protocol's final metrics

  bool ConservationOk() const {
    return arrived == detected + missed_departed + undetected_at_end;
  }
};

// SloReport wire codec (common/serialize.h): used by service checkpoints
// and by the soak supervisor's per-run result files, so a resumed or
// re-parented run folds into the aggregate bit-identically.
inline void PutSloReport(std::string& out, const SloReport& r) {
  ser::PutVarint(out, r.slots);
  ser::PutVarint(out, r.rounds);
  ser::PutVarint(out, r.epochs);
  ser::PutVarint(out, r.arrived);
  ser::PutVarint(out, r.departed);
  ser::PutVarint(out, r.detected);
  ser::PutVarint(out, r.missed_departed);
  ser::PutVarint(out, r.undetected_at_end);
  ser::PutVarint(out, r.ghost_detections);
  ser::PutVarint(out, r.detections_total);
  ser::PutVarint(out, r.suppressed_arrivals);
  ser::PutF64(out, r.detect_p50);
  ser::PutF64(out, r.detect_p99);
  ser::PutF64(out, r.staleness_p99);
  ser::PutF64(out, r.mean_population);
  ser::PutF64(out, r.missed_rate);
  ser::PutF64(out, r.ghost_rate);
  ser::PutVarint(out, r.open_phy_records_end);
  ser::PutBool(out, r.churn_supported);
  sim::PutRunMetrics(out, r.metrics);
}

inline bool ReadSloReport(ser::Reader& r, SloReport& out) {
  out.slots = r.Varint();
  out.rounds = r.Varint();
  out.epochs = r.Varint();
  out.arrived = r.Varint();
  out.departed = r.Varint();
  out.detected = r.Varint();
  out.missed_departed = r.Varint();
  out.undetected_at_end = r.Varint();
  out.ghost_detections = r.Varint();
  out.detections_total = r.Varint();
  out.suppressed_arrivals = r.Varint();
  out.detect_p50 = r.F64();
  out.detect_p99 = r.F64();
  out.staleness_p99 = r.F64();
  out.mean_population = r.F64();
  out.missed_rate = r.F64();
  out.ghost_rate = r.F64();
  out.open_phy_records_end = static_cast<std::size_t>(r.Varint());
  out.churn_supported = r.Bool();
  return sim::ReadRunMetrics(r, out.metrics);
}

// Drives one service run over a pre-built universe and churn schedule.
// The protocol must have been constructed over `universe` (all indices);
// Run() marks indices >= n_initial absent before the first Step. Pass a
// default TraceContext to run untraced.
class InventoryService {
 public:
  // `snapshot_log` (optional) receives every epoch the service emits, so
  // monitor threads can read live inventory state while the run is in
  // flight (store/snapshot.h seqlock: this service is the single writer).
  InventoryService(const ServiceConfig& config, sim::Protocol& protocol,
                   std::span<const TagId> universe, std::size_t n_initial,
                   const ChurnSchedule& schedule,
                   trace::TraceContext trace = {},
                   store::EpochSnapshotLog* snapshot_log = nullptr);

  // Crash-safety hooks for Run(). `on_checkpoint` fires right after
  // every `checkpoint_every_epochs`-th epoch snapshot, between Step()s —
  // the only point where the protocol contract allows SaveState. The
  // abort hook emulates a crash for kill-injection tests: when the slot
  // clock reaches `abort_before_slot`, Run returns immediately without
  // draining, finalizing or Shutdown (exactly what SIGKILL leaves
  // behind), and sets *aborted.
  struct RunHooks {
    std::uint64_t checkpoint_every_epochs = 0;  // 0 = never
    std::function<void(std::uint64_t slot)> on_checkpoint;
    // Fires after every in-loop epoch snapshot (before any checkpoint) —
    // the supervisor's heartbeat source: workers read the latest entry
    // off their snapshot log here and report it upstream.
    std::function<void(std::uint64_t slot)> on_epoch;
    std::uint64_t abort_before_slot = 0;  // 0 = never
    bool* aborted = nullptr;
  };

  // Runs to drain or budget, snapshots, shuts the protocol down, and
  // returns the report. Call at most once per service instance.
  SloReport Run() { return Run(RunHooks{}); }
  SloReport Run(const RunHooks& hooks);

  // Checkpoint codec (common/serialize.h): all mutable service state
  // plus the resume slot. The universe, churn schedule and config are
  // NOT serialized — a resume rebuilds them deterministically from the
  // run seed and restores onto a freshly constructed service of the
  // identical shape (RestoreState fails closed on a population
  // mismatch). The wrapped protocol checkpoints separately through its
  // own sim::Protocol hooks.
  void SaveState(std::string* out, std::uint64_t slot) const;
  bool RestoreState(ser::Reader& r, std::uint64_t* slot);

 private:
  struct TagState {
    bool ever_present = false;
    bool present = false;
    bool detected = false;        // first-detected while present
    bool ghost_detected = false;  // first-detected after departure
    std::uint64_t arrive_slot = 0;
    std::uint64_t last_seen = 0;
  };

  void ApplyChurnDue(std::uint64_t slot);
  void OnDetections(std::uint64_t slot);
  void Snapshot(std::uint64_t slot);
  bool Drained(std::uint64_t slot) const;

  const ServiceConfig& config_;
  sim::Protocol& protocol_;
  std::span<const TagId> universe_;
  std::size_t n_initial_;
  std::span<const ChurnEvent> events_;
  trace::TraceContext trace_;
  store::EpochSnapshotLog* snapshot_log_ = nullptr;

  std::vector<TagState> states_;
  DigestIndex digest_to_index_;
  bool resumed_ = false;          // RestoreState succeeded: skip setup
  std::uint64_t resume_slot_ = 0; // slot the resumed loop continues from
  std::size_t next_event_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t undetected_present_ = 0;
  std::uint64_t last_snapshot_slot_ = 0;

  P2Quantile detect_p50_{0.5};
  P2Quantile detect_p99_{0.99};
  P2Quantile staleness_p99_{0.99};
  RunningStats epoch_population_;
  RunningStats epoch_ghost_rate_;

  SloReport report_;
};

// Multi-run soak driver: the soak counterpart of sim::ExperimentOptions
// and RunExperiment, on the same ordered run pool.
struct SoakOptions {
  std::size_t n_initial = 50;
  std::size_t runs = 4;
  std::uint64_t base_seed = 1;
  std::size_t n_threads = 1;  // bit-identical aggregate at any value
  // Trace sink; null = off. Whole runs in run-index order, from the
  // calling thread (sim::ForEachRun).
  trace::TraceSink* trace = nullptr;
  // Live epoch feed (single-writer seqlock): set only for single-run
  // soaks or direct RunSoakSingle calls — concurrent runs would all
  // write the one log. Null = no live feed.
  store::EpochSnapshotLog* snapshot_log = nullptr;
};

// Executes soak run `run_index` exactly as RunSoakExperiment would (same
// seed derivation and trace framing) — the service replay entry point.
SloReport RunSoakSingle(const sim::ProtocolFactory& factory,
                        const ServiceConfig& config,
                        const SoakOptions& options, std::size_t run_index,
                        trace::TraceSink* sink = nullptr);

struct SoakAggregate {
  RunningStats detect_p50;
  RunningStats detect_p99;
  RunningStats staleness_p99;
  RunningStats missed_rate;
  RunningStats ghost_rate;
  RunningStats mean_population;
  RunningStats arrived;
  RunningStats departed;
  RunningStats detected;
  RunningStats slots;
  RunningStats rounds;
  RunningStats elapsed_seconds;
  std::uint64_t missed_total = 0;
  std::uint64_t ghost_detections_total = 0;
  std::uint64_t suppressed_arrivals_total = 0;
  std::uint64_t conservation_failures = 0;   // runs violating the partition
  std::uint64_t open_records_after_shutdown = 0;  // summed; must be 0
  std::uint64_t churn_unsupported_runs = 0;

  // Folds `other` in (RunningStats::Merge per metric, totals summed).
  // The supervisor merges shard aggregates with this; merge order does
  // not affect the totals. (RunSoakExperiment does not merge: it folds
  // per-run reports with AccumulateSoak in run-index order.)
  void Merge(const SoakAggregate& other);
};

// Folds one run's report into the aggregate — the exact fold
// RunSoakExperiment applies in run-index order, exposed so external
// drivers (the soak supervisor) reproduce its aggregate bit-identically
// from per-run SloReport files.
void AccumulateSoak(SoakAggregate& agg, const SloReport& report);

SoakAggregate RunSoakExperiment(const sim::ProtocolFactory& factory,
                                const ServiceConfig& config,
                                const SoakOptions& options);

}  // namespace anc::service
