#include "sim/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/factories.h"
#include "service/service.h"
#include "sim/population.h"

namespace anc::sim {
namespace {

// A protocol that never finishes: must trip the safety cap, not hang.
class StuckProtocol final : public Protocol {
 public:
  std::string_view name() const override { return "stuck"; }
  void Step() override {
    ++metrics_.empty_slots;
    metrics_.elapsed_seconds += 1e-3;
  }
  bool Finished() const override { return false; }
  const RunMetrics& metrics() const override { return metrics_; }

 private:
  RunMetrics metrics_;
};

TEST(Runner, SafetyCapCatchesLivelock) {
  ExperimentOptions opts;
  opts.n_tags = 10;
  opts.runs = 2;
  opts.max_slots_per_tag = 5;
  const auto agg = RunExperiment(
      [](std::span<const TagId>, anc::Pcg32) {
        return std::make_unique<StuckProtocol>();
      },
      opts);
  EXPECT_EQ(agg.runs_capped, 2u);
  EXPECT_EQ(agg.throughput.count(), 0u);
}

TEST(Runner, AggregatesAcrossRuns) {
  ExperimentOptions opts;
  opts.n_tags = 300;
  opts.runs = 4;
  const auto agg = RunExperiment(core::MakeAlohaFactory(), opts);
  EXPECT_EQ(agg.runs_capped, 0u);
  EXPECT_EQ(agg.throughput.count(), 4u);
  EXPECT_GT(agg.throughput.mean(), 0.0);
  // ALOHA: every tag read in a singleton slot.
  EXPECT_NEAR(agg.singleton_slots.mean(), 300.0, 1e-9);
}

void ExpectStatsIdentical(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  // Exact comparison on purpose: the parallel runner folds runs back in
  // run-index order, so every bit must match the sequential path.
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void ExpectAggregateIdentical(const AggregateResult& a,
                              const AggregateResult& b) {
  ExpectStatsIdentical(a.throughput, b.throughput);
  ExpectStatsIdentical(a.total_slots, b.total_slots);
  ExpectStatsIdentical(a.empty_slots, b.empty_slots);
  ExpectStatsIdentical(a.singleton_slots, b.singleton_slots);
  ExpectStatsIdentical(a.collision_slots, b.collision_slots);
  ExpectStatsIdentical(a.ids_from_collisions, b.ids_from_collisions);
  ExpectStatsIdentical(a.elapsed_seconds, b.elapsed_seconds);
  ExpectStatsIdentical(a.unresolved_records, b.unresolved_records);
  EXPECT_EQ(a.runs_capped, b.runs_capped);
}

TEST(Runner, ParallelBitIdenticalToSequentialFcat) {
  const auto factory = core::MakeFcatFactory(core::FcatOptions{});
  ExperimentOptions opts;
  opts.n_tags = 250;
  opts.runs = 8;
  opts.n_threads = 1;
  const auto sequential = RunExperiment(factory, opts);
  for (std::size_t threads : {2u, 8u, 0u}) {  // 0 = hardware concurrency
    opts.n_threads = threads;
    ExpectAggregateIdentical(RunExperiment(factory, opts), sequential);
  }
}

TEST(Runner, ParallelBitIdenticalToSequentialScat) {
  const auto factory = core::MakeScatFactory(core::ScatOptions{});
  ExperimentOptions opts;
  opts.n_tags = 250;
  opts.runs = 8;
  opts.n_threads = 1;
  const auto sequential = RunExperiment(factory, opts);
  for (std::size_t threads : {2u, 8u}) {
    opts.n_threads = threads;
    ExpectAggregateIdentical(RunExperiment(factory, opts), sequential);
  }
}

TEST(Runner, ParallelCountsCappedRuns) {
  ExperimentOptions opts;
  opts.n_tags = 10;
  opts.runs = 6;
  opts.max_slots_per_tag = 5;
  opts.n_threads = 3;
  const auto agg = RunExperiment(
      [](std::span<const TagId>, anc::Pcg32) {
        return std::make_unique<StuckProtocol>();
      },
      opts);
  EXPECT_EQ(agg.runs_capped, 6u);
  EXPECT_EQ(agg.throughput.count(), 0u);
}

TEST(Runner, MoreThreadsThanRuns) {
  ExperimentOptions opts;
  opts.n_tags = 100;
  opts.runs = 2;
  opts.n_threads = 16;
  const auto agg = RunExperiment(core::MakeAlohaFactory(), opts);
  EXPECT_EQ(agg.throughput.count(), 2u);
}

TEST(Runner, AggregateMergePoolsShards) {
  // Two disjoint experiment shards (e.g. from different processes of a
  // distributed sweep) pooled into one aggregate.
  const auto factory = core::MakeDfsaFactory();
  ExperimentOptions opts;
  opts.n_tags = 300;
  opts.runs = 5;
  opts.base_seed = 1;
  const auto a = RunExperiment(factory, opts);
  opts.runs = 3;
  opts.base_seed = 100;
  const auto b = RunExperiment(factory, opts);

  auto merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.throughput.count(), 8u);
  EXPECT_EQ(merged.runs_capped, a.runs_capped + b.runs_capped);
  const double na = static_cast<double>(a.throughput.count());
  const double nb = static_cast<double>(b.throughput.count());
  EXPECT_NEAR(merged.throughput.mean(),
              (a.throughput.mean() * na + b.throughput.mean() * nb) /
                  (na + nb),
              1e-9);
  EXPECT_EQ(merged.total_slots.min(),
            std::min(a.total_slots.min(), b.total_slots.min()));
  EXPECT_EQ(merged.total_slots.max(),
            std::max(a.total_slots.max(), b.total_slots.max()));
}

TEST(Runner, EffectiveThreadCount) {
  EXPECT_EQ(EffectiveThreadCount(4), 4u);
  EXPECT_GE(EffectiveThreadCount(0), 1u);
}

TEST(Runner, RunOnceDeterministicInSeed) {
  const auto factory = core::MakeDfsaFactory();
  const RunMetrics a = RunOnce(factory, 500, 42);
  const RunMetrics b = RunOnce(factory, 500, 42);
  const RunMetrics c = RunOnce(factory, 500, 43);
  EXPECT_EQ(a.TotalSlots(), b.TotalSlots());
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_NE(a.TotalSlots(), c.TotalSlots());
}

// Checks the contract ForEachRun gives a trace sink: whole runs, run
// indices 0..n-1 in order, every call from the thread that built the sink.
class CheckingSink final : public trace::TraceSink {
 public:
  void BeginRun(const trace::RunHeader& header) override {
    CountForeignCall();
    EXPECT_FALSE(in_run_) << "BeginRun inside run " << delivered_;
    EXPECT_EQ(header.run_index, delivered_);
    in_run_ = true;
    events_ = 0;
  }
  void OnEvent(const trace::TraceEvent&) override {
    CountForeignCall();
    EXPECT_TRUE(in_run_) << "event outside a run";
    ++events_;
  }
  void EndRun() override {
    CountForeignCall();
    EXPECT_TRUE(in_run_) << "EndRun outside a run";
    EXPECT_GT(events_, 0u) << "run " << delivered_ << " has no events";
    in_run_ = false;
    ++delivered_;
  }

  std::size_t delivered() const { return delivered_; }  // runs closed

  void ExpectDone(std::size_t runs) const {
    EXPECT_EQ(delivered_, runs);
    EXPECT_FALSE(in_run_);
    EXPECT_EQ(foreign_calls_, 0u) << "calls from another thread";
  }

 private:
  void CountForeignCall() {
    if (std::this_thread::get_id() != owner_) ++foreign_calls_;
  }

  std::thread::id owner_ = std::this_thread::get_id();
  std::size_t delivered_ = 0;
  std::size_t events_ = 0;
  std::size_t foreign_calls_ = 0;
  bool in_run_ = false;
};

TEST(Runner, TraceSinkSeesWholeRunsInOrderFromTheCallingThread) {
  constexpr std::size_t kRuns = 4;
  service::ServiceConfig config;
  ASSERT_TRUE(service::LookupServiceProfile("smoke", &config));
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    // At one thread, building run r's protocol finds runs 0..r-1 already
    // in the sink: they stream, they are not buffered.
    CheckingSink* sink = nullptr;
    std::atomic<std::size_t> built{0};
    const ProtocolFactory fcat = core::MakeFcatFactory({});
    const ProtocolFactory factory = [&](std::span<const TagId> population,
                                        anc::Pcg32 rng) {
      const std::size_t run = built++;
      if (threads == 1) {
        EXPECT_EQ(sink->delivered(), run);
      }
      return fcat(population, rng);
    };

    CheckingSink experiment_sink;
    sink = &experiment_sink;
    built = 0;
    ExperimentOptions eo;
    eo.n_tags = 60;
    eo.runs = kRuns;
    eo.n_threads = threads;
    eo.trace = sink;
    RunExperiment(factory, eo);
    experiment_sink.ExpectDone(kRuns);

    CheckingSink soak_sink;
    sink = &soak_sink;
    built = 0;
    service::SoakOptions so;
    so.n_initial = 20;
    so.runs = kRuns;
    so.n_threads = threads;
    so.trace = sink;
    service::RunSoakExperiment(factory, config, so);
    soak_sink.ExpectDone(kRuns);
  }
}

TEST(Runner, DistinctSeedsAcrossRuns) {
  // Multi-run variance should be non-zero (different populations/streams).
  ExperimentOptions opts;
  opts.n_tags = 400;
  opts.runs = 6;
  const auto agg = RunExperiment(core::MakeDfsaFactory(), opts);
  EXPECT_GT(agg.total_slots.variance(), 0.0);
}

}  // namespace
}  // namespace anc::sim
