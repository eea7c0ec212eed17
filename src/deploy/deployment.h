// Multi-reader deployment simulation: a 2D floor plan read by a grid of
// readers under an interference-aware TDMA schedule, with a
// duplicate-removing global inventory merge and (optionally) the ANC
// twist unique to this paper — cross-reader record sharing, where a
// resolved ID is broadcast to neighbouring readers so their overlap-zone
// collision records cascade too.
//
// A whole deployment round is itself a sim::Protocol: Step() advances one
// global TDMA slot (stepping every reader the scheduler activated), and
// metrics() reports deployment-level totals (tags_read = merged unique
// IDs, elapsed_seconds = makespan, frames = global scheduler slots,
// duplicate_receptions = duplicate reads). That lets the deterministic
// parallel RunExperiment machinery — and the shared --runs/--threads/
// --json bench flags — drive multi-run deployment sweeps unmodified.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/digest_index.h"
#include "deploy/geometry.h"
#include "deploy/scheduler.h"
#include "sim/metrics.h"
#include "sim/protocol.h"
#include "sim/runner.h"

namespace anc::deploy {

struct DeploymentConfig {
  FloorPlan floor{};
  TagLayout layout{};
  std::size_t reader_rows = 2;
  std::size_t reader_cols = 2;
  // Extra coverage-radius fraction beyond the minimal floor-tiling radius
  // (see GridReaders); more overlap means more duplicate reads and a
  // denser interference graph, but more sharing opportunities.
  double overlap = 0.15;
  SchedulerPolicy policy = SchedulerPolicy::kColoring;
  // Broadcast resolved IDs to neighbouring readers' record trackers.
  bool share_records = false;
  // Per-reader livelock cap, same semantics as sim::ExperimentOptions.
  std::uint64_t max_slots_per_tag = sim::kDefaultMaxSlotsPerTag;
  // Mid-run reader failure (src/fault): reader `reader` dies permanently
  // once the global TDMA clock reaches `at_global_slot`. Its protocol is
  // shut down (stored signals released), it leaves the schedule, and the
  // TDMA plan is rebuilt over the residual interference graph, so the
  // dead reader's slot share is redistributed across the survivors. Tags
  // in its exclusive zone become unreachable; `complete` then reports
  // whether the overlap zones covered everything.
  struct ReaderFaultPlan {
    bool enabled = false;
    std::size_t reader = 0;
    std::uint64_t at_global_slot = 0;
  };
  ReaderFaultPlan reader_death{};
};

struct ReaderReport {
  Reader position;
  std::size_t covered_tags = 0;
  std::uint64_t active_slots = 0;  // global slots this reader transmitted in
  double duty_cycle = 0.0;         // active_slots / global slots
  bool capped = false;             // hit the livelock cap (never, in tests)
  bool dead = false;               // killed by the reader_death fault plan
  sim::RunMetrics metrics;
};

struct DeploymentResult {
  std::size_t n_tags = 0;
  std::size_t n_readers = 0;
  std::size_t unique_ids = 0;        // merged global inventory
  std::uint64_t duplicate_reads = 0; // over-the-air reads minus unique IDs
  std::uint64_t global_slots = 0;    // TDMA slots until every reader done
  double makespan_seconds = 0.0;     // time-to-full-inventory
  // Busy reader-slots / (global_slots * n_readers): how much of the
  // schedule's capacity carried actual reading.
  double slot_efficiency = 0.0;
  std::uint64_t ids_from_collisions = 0;  // summed over readers
  std::uint64_t injected_ids = 0;         // IDs accepted from neighbours
  std::uint64_t shared_resolutions = 0;   // records closed by a broadcast
  std::size_t dead_readers = 0;           // readers lost to the fault plan
  bool complete = false;                  // every tag in the merged inventory
  std::vector<ReaderReport> per_reader;
};

// One deployment inventory round as a protocol (see file comment). The
// constructor places the tags, lays out the reader grid, and builds one
// protocol instance per reader through `factory` over the tags that
// reader covers.
class DeploymentProtocol final : public sim::Protocol {
 public:
  DeploymentProtocol(std::span<const TagId> tags, anc::Pcg32 rng,
                     const DeploymentConfig& config,
                     const sim::ProtocolFactory& factory);
  ~DeploymentProtocol() override;

  void Step() override;
  bool Finished() const override { return finished_; }
  std::string_view name() const override { return name_; }
  const sim::RunMetrics& metrics() const override;

  // Tracing: the deployment emits one kTdmaSlot event per global slot
  // (reader 0 = the deployment itself) and re-attaches every per-reader
  // protocol with reader ids 1..R, so a single sink sees the interleaved
  // global timeline alongside each reader's own slot stream.
  void AttachTrace(const trace::TraceContext& context) override;

  // Deployment-level view (duty cycles, sharing counters, merge detail).
  DeploymentResult Result() const;
  const InterferenceGraph& interference_graph() const { return graph_; }

  // Records still held across every reader's phy store (the leak-check
  // hook: 0 after a completed deployment, dead readers included).
  std::size_t OpenPhyRecords() const override;

  // Shuts down every reader (dead ones already are; per-reader Shutdown
  // is idempotent), releasing any records still open — e.g. collision
  // records whose tags departed mid-soak and can never resolve.
  void Shutdown() override;

  // Churn hooks (src/service): presence changes are forwarded to every
  // reader whose coverage disk contains the tag; an arrival additionally
  // resumes covering readers that had already finished their inventory
  // (the new tag would otherwise wait for a deployment-wide re-arm).
  // Supported when every per-reader protocol supports churn.
  bool SupportsChurn() const override;
  bool ArriveTag(const TagId& id) override;
  bool DepartTag(const TagId& id) override;
  bool BeginInventoryRound(bool refresh) override;
  // IDs identified during the last Step(), across all active readers —
  // over-the-air reads and neighbour-broadcast cascade resolutions alike
  // (duplicates possible when overlap zones read the same tag; the
  // service layer dedups by state).
  std::span<const TagId> LearnedThisStep() const override {
    return learned_this_step_;
  }

  // Checkpoint hooks (sim::Protocol): supported when every per-reader
  // protocol is checkpointable. The blob carries each reader's protocol
  // state, the TDMA scheduler cursor and the merge/accounting state; on
  // restore, a deployment whose fault plan had already killed a reader
  // rebuilds the scheduler over the residual interference graph before
  // restoring the scheduler cursor, reproducing the post-kill schedule.
  bool SupportsCheckpoint() const override;
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view bytes) override;

 private:
  struct ReaderState;

  bool ReaderDone(const ReaderState& reader) const;
  void Broadcast(std::uint32_t reader, const TagId& id);
  void MarkIdentified(const TagId& id);
  void KillReader(std::size_t victim);

  std::string name_;
  std::span<const TagId> tags_;
  DeploymentConfig config_;
  std::vector<Point> points_;
  InterferenceGraph graph_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<ReaderState>> readers_;
  // Split off only when a reader_death plan is configured, so unfaulted
  // deployments keep their exact pre-fault RNG stream (bit-identical
  // bench_deploy output).
  anc::Pcg32 resched_rng_;

  trace::TraceContext trace_;
  std::vector<bool> identified_;        // global merged inventory, by index
  DigestIndex digest_to_index_;
  // Churn routing: tag index -> readers covering it (grid order).
  std::vector<std::vector<std::uint32_t>> covered_by_;
  std::vector<TagId> learned_this_step_;
  std::size_t unique_ids_ = 0;
  std::uint64_t global_slots_ = 0;
  std::uint64_t busy_reader_slots_ = 0;
  std::uint64_t shared_resolutions_ = 0;
  double makespan_seconds_ = 0.0;
  double last_slot_seconds_ = 0.0;
  std::uint64_t stall_slots_ = 0;
  bool finished_ = false;

  // Scratch for Step()/metrics().
  std::vector<bool> pending_;
  std::vector<std::pair<std::uint32_t, TagId>> broadcast_queue_;
  mutable sim::RunMetrics merged_;
};

// Runs one deployment to completion and returns the deployment-level
// result. Seeding follows the RunOnce convention (sim::RunRng(0, seed))
// so a (seed, config) pair is fully reproducible.
DeploymentResult RunDeployment(std::span<const TagId> tags,
                               const DeploymentConfig& config,
                               const sim::ProtocolFactory& factory,
                               std::uint64_t seed);

// Wraps a whole deployment as a ProtocolFactory for RunExperiment: each
// run places fresh tags on the floor and runs the full schedule. All
// randomness derives from the run's rng, so aggregates stay bit-identical
// at any --threads value.
sim::ProtocolFactory MakeDeploymentFactory(DeploymentConfig config,
                                           sim::ProtocolFactory factory);

}  // namespace anc::deploy
