#include "trace/sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/factories.h"
#include "deploy/deployment.h"
#include "read_back.h"
#include "service/replay.h"
#include "sim/runner.h"
#include "store/container.h"
#include "trace/binary.h"
#include "trace/diff.h"
#include "trace/jsonl.h"
#include "trace/timeseries.h"

namespace anc::trace {
namespace {

sim::ProtocolFactory Fcat2() {
  core::FcatOptions options;
  options.lambda = 2;
  options.timing = phy::TimingModel::ICode();
  return core::MakeFcatFactory(options);
}

// Records `runs` runs of `factory` and returns the collected trace.
TraceFile RecordTrace(const sim::ProtocolFactory& factory, std::size_t n_tags,
                      std::size_t runs, std::uint64_t base_seed = 1) {
  sim::ExperimentOptions eo;
  eo.n_tags = n_tags;
  eo.runs = runs;
  eo.base_seed = base_seed;
  MemorySink recorded;
  eo.trace = &recorded;
  sim::RunExperiment(factory, eo);
  return recorded.TakeFile();
}

TEST(TraceSink, NullContextIsOff) {
  TraceContext context;
  EXPECT_FALSE(context);
  EXPECT_FALSE(context.WithReader(3));
}

TEST(TraceRecorder, TracedRunHasTheExpectedShape) {
  const TraceFile file = RecordTrace(Fcat2(), 150, 1);
  ASSERT_EQ(file.runs.size(), 1u);
  const RunTrace& run = file.runs[0];
  EXPECT_EQ(run.header.protocol, "FCAT-2");
  EXPECT_EQ(run.header.n_tags, 150u);
  EXPECT_EQ(run.header.base_seed, 1u);

  std::uint64_t slots = 0, frames = 0, acks = 0, opens = 0, resolves = 0;
  ASSERT_FALSE(run.events.empty());
  for (const TraceEvent& e : run.events) {
    switch (e.kind) {
      case EventKind::kSlot: ++slots; break;
      case EventKind::kFrame: ++frames; break;
      case EventKind::kAck: ++acks; break;
      case EventKind::kRecordOpen: ++opens; break;
      case EventKind::kRecordResolve: ++resolves; break;
      default: break;
    }
  }
  const TraceEvent& last = run.events.back();
  ASSERT_EQ(last.kind, EventKind::kRunEnd);
  EXPECT_EQ(last.record, 150u);        // tags_read
  EXPECT_EQ(last.slot, slots);         // total slots
  EXPECT_EQ(last.estimate_q8, 0u);     // not capped
  EXPECT_GT(frames, 0u);
  EXPECT_GE(acks, 150u);               // one ack per read (plus re-acks)
  EXPECT_GT(opens, 0u);                // collisions happened
  EXPECT_GT(resolves, 0u);             // and some resolved via ANC
  EXPECT_LE(resolves, opens * 2);      // <= lambda per record
}

TEST(TraceRecorder, TracingDoesNotChangeMetrics) {
  sim::ExperimentOptions eo;
  eo.n_tags = 200;
  eo.runs = 3;
  const auto plain = sim::RunExperiment(Fcat2(), eo);
  MemorySink recorded;
  eo.trace = &recorded;
  const auto traced = sim::RunExperiment(Fcat2(), eo);
  EXPECT_EQ(plain.throughput.mean(), traced.throughput.mean());
  EXPECT_EQ(plain.total_slots.mean(), traced.total_slots.mean());
  EXPECT_EQ(plain.collision_slots.mean(), traced.collision_slots.mean());
  EXPECT_EQ(plain.elapsed_seconds.mean(), traced.elapsed_seconds.mean());
}

TEST(TraceRecorder, SerializedTraceByteIdenticalAcrossThreadCounts) {
  const auto factory = Fcat2();
  std::string reference;
  for (std::size_t threads : {1u, 4u, 8u}) {
    sim::ExperimentOptions eo;
    eo.n_tags = 120;
    eo.runs = 6;
    eo.n_threads = threads;
    MemorySink recorded;
    eo.trace = &recorded;
    sim::RunExperiment(factory, eo);
    const std::string bytes = EncodeTrace(recorded.TakeFile());
    if (reference.empty()) {
      reference = bytes;
      ASSERT_GT(reference.size(), 16u);
    } else {
      // Byte-for-byte: the run pool hands the sink runs in run-index order
      // regardless of which worker finished first.
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
}

using testing_trace::ReadBack;

TEST(TraceBinary, EncodeDecodeRoundTrip) {
  const TraceFile file = RecordTrace(Fcat2(), 100, 2, 7);
  TraceFile decoded;
  ASSERT_EQ(ReadBack(EncodeTrace(file), &decoded), "");
  EXPECT_EQ(decoded, file);
}

TEST(TraceBinary, RejectsCorruptInput) {
  TraceFile decoded;
  EXPECT_NE(ReadBack("not a trace", &decoded), "");
  const TraceFile file = RecordTrace(Fcat2(), 50, 1);
  std::string bytes = EncodeTrace(file);
  bytes.resize(bytes.size() / 2);  // truncate mid-stream
  EXPECT_NE(ReadBack(bytes, &decoded), "");
}

TEST(TraceBinary, FileRoundTripAndAppend) {
  // v1 run blocks are self-delimiting: a run block appended to a v1 file
  // reads back as one more run.
  const TraceFile a = RecordTrace(Fcat2(), 80, 1, 1);
  const TraceFile b = RecordTrace(Fcat2(), 80, 1, 2);
  TraceFile read;
  ASSERT_EQ(ReadBack(EncodeTrace(a) + EncodeRun(b.runs[0]), &read), "");
  ASSERT_EQ(read.runs.size(), 2u);
  EXPECT_EQ(read.runs[0], a.runs[0]);
  EXPECT_EQ(read.runs[1], b.runs[0]);
}

TEST(TraceJsonl, EventShapes) {
  TraceEvent slot;
  slot.kind = EventKind::kSlot;
  slot.slot = 12;
  slot.frame = 1;
  slot.outcome = SlotOutcome::kCollision;
  slot.responders = 3;
  EXPECT_EQ(EventToJson(slot),
            "{\"type\":\"slot\",\"reader\":0,\"slot\":12,\"frame\":1,"
            "\"outcome\":\"collision\",\"responders\":3}");

  TraceEvent frame;
  frame.kind = EventKind::kFrame;
  frame.slot = 30;
  frame.frame = 1;
  frame.n_c = 7;
  frame.record = 7;
  frame.estimate_q8 = QuantizeEstimate(812.25);  // representable in Q8
  frame.elapsed_us = 91545;
  const std::string json = EventToJson(frame);
  EXPECT_NE(json.find("\"type\":\"frame\""), std::string::npos);
  EXPECT_NE(json.find("\"estimate\":812.25"), std::string::npos);
  EXPECT_NE(json.find("\"elapsed_us\":91545"), std::string::npos);
}

// The protocol name comes from disk, so `trace_inspect filter
// --format=jsonl` must escape whatever bytes it holds.
TEST(TraceJsonl, RunHeaderEscapesQuotesBackslashesAndControlBytes) {
  const RunHeader header{0, 1, 10, 100, "a\"b\\c\nd\x01" "e"};
  EXPECT_EQ(RunHeaderToJson(header),
            "{\"type\":\"run_header\",\"run\":0,\"base_seed\":1,"
            "\"n_tags\":10,\"max_slots_per_tag\":100,"
            "\"protocol\":\"a\\\"b\\\\c\\nd\\u0001e\"}");
  EXPECT_EQ(JsonStr(std::string_view("\0\x1f\t", 3)), "\"\\u0000\\u001f\\t\"");
}

TEST(TraceDiffTest, DetectsSingleFieldPerturbation) {
  const TraceFile a = RecordTrace(Fcat2(), 100, 2);
  EXPECT_TRUE(DiffTraces(a, a).identical);

  TraceFile b = a;
  const std::size_t victim = b.runs[1].events.size() / 2;
  b.runs[1].events[victim].slot += 1;
  const TraceDiff diff = DiffTraces(a, b);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.run_index, 1u);
  EXPECT_EQ(diff.event_index, victim);
  EXPECT_FALSE(diff.message.empty());
}

TEST(TraceDiffTest, DetectsHeaderAndLengthDivergence) {
  const TraceFile a = RecordTrace(Fcat2(), 100, 1);
  TraceFile header_changed = a;
  header_changed.runs[0].header.base_seed += 1;
  EXPECT_FALSE(DiffTraces(a, header_changed).identical);

  TraceFile truncated = a;
  truncated.runs[0].events.pop_back();
  const TraceDiff diff = DiffTraces(a, truncated);
  EXPECT_FALSE(diff.identical);
  EXPECT_EQ(diff.event_index, a.runs[0].events.size() - 1);
}

TEST(TraceReplay, FcatRoundTrips) {
  const TraceFile file = RecordTrace(Fcat2(), 150, 2);
  const service::ReplayReport report = service::VerifyReplay(file, Fcat2());
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(TraceReplay, ScatRoundTrips) {
  core::ScatOptions options;
  options.lambda = 2;
  const auto factory = core::MakeScatFactory(options);
  const TraceFile file = RecordTrace(factory, 120, 2);
  const service::ReplayReport report = service::VerifyReplay(file, factory);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(TraceReplay, DfsaRoundTrips) {
  const auto factory = core::MakeDfsaFactory();
  const TraceFile file = RecordTrace(factory, 200, 2);
  const service::ReplayReport report = service::VerifyReplay(file, factory);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(TraceReplay, FourReaderDeploymentRoundTrips) {
  deploy::DeploymentConfig config;  // 2x2 grid over the default 40m room
  config.share_records = true;
  const auto factory = deploy::MakeDeploymentFactory(config, Fcat2());
  const TraceFile file = RecordTrace(factory, 250, 1);
  ASSERT_EQ(file.runs.size(), 1u);
  // The deployment's own timeline plus all four readers must appear.
  bool saw_tdma = false;
  std::uint32_t max_reader = 0;
  for (const TraceEvent& e : file.runs[0].events) {
    saw_tdma |= e.kind == EventKind::kTdmaSlot;
    max_reader = std::max(max_reader, e.reader);
  }
  EXPECT_TRUE(saw_tdma);
  EXPECT_EQ(max_reader, 4u);
  const service::ReplayReport report = service::VerifyReplay(file, factory);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(TraceReplay, DivergentFactoryIsReported) {
  const TraceFile file = RecordTrace(Fcat2(), 100, 1);
  core::FcatOptions other;
  other.lambda = 3;  // not the recorded protocol
  const service::ReplayReport report =
      service::VerifyReplay(file, core::MakeFcatFactory(other));
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.diff.identical);
}

TEST(TraceTimeSeries, FcatSeriesTracksReadingProgress) {
  const TraceFile file = RecordTrace(Fcat2(), 200, 1);
  const auto series = ExtractFrameSeries(file.runs[0]);
  ASSERT_GT(series.size(), 1u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].frame, series[i - 1].frame);
    EXPECT_GE(series[i].tags_read, series[i - 1].tags_read);
    EXPECT_GE(series[i].elapsed_seconds, series[i - 1].elapsed_seconds);
  }
  // Nearly every tag is read by the last frame boundary (the run's tail —
  // the final handful of reads — lands in a partial frame after it).
  EXPECT_GE(series.back().tags_read, 190u);
  EXPECT_LE(series.back().tags_read, 200u);
  // Records above mixture order lambda are never ANC-resolvable, so the
  // store does not drain to zero; it must stay bounded by what was opened.
  std::uint64_t opened = 0;
  for (const TraceEvent& e : file.runs[0].events) {
    opened += e.kind == EventKind::kRecordOpen ? 1 : 0;
  }
  EXPECT_LE(series.back().open_records, opened);
  EXPECT_GT(series.back().throughput_so_far, 0.0);
  // The embedded estimator converges toward N (coarse bound: the whole
  // point of the Eq. 12 feedback loop).
  EXPECT_LT(series.back().estimate_abs_error, 200.0);

  const std::string csv = FrameSeriesCsv(series);
  EXPECT_NE(csv.find("frame,end_slot,tags_read"), std::string::npos);
  // Header plus one row per frame.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            series.size() + 1);
}

TEST(TraceRunner, RunSingleMatchesRunOnce) {
  // RunOnce(seed s) is run s of a base_seed=0 experiment; the trace header
  // records exactly that pair.
  const auto factory = Fcat2();
  MemorySink sink;
  sim::ExperimentOptions eo;
  eo.n_tags = 90;
  eo.base_seed = 0;
  const auto single = sim::RunSingle(factory, eo, 17, &sink);
  const auto once = sim::RunOnce(factory, 90, 17);
  EXPECT_EQ(single.metrics.TotalSlots(), once.TotalSlots());
  EXPECT_EQ(single.metrics.elapsed_seconds, once.elapsed_seconds);
  ASSERT_EQ(sink.runs().size(), 1u);
  EXPECT_EQ(sink.runs()[0].header.run_index, 17u);
  EXPECT_EQ(sink.runs()[0].header.base_seed, 0u);
}

}  // namespace
}  // namespace anc::trace
