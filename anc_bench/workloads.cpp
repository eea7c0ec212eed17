#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "common/serialize.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "sim/runner.h"
#include "store/crc32.h"
#include "store/lz.h"
#include "store/query.h"
#include "trace/binary.h"

namespace anc::perf {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string ReadFileBytes(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    out.append(buf, n);
    if (n < sizeof buf) break;
  }
  std::fclose(f);
  return out;
}

// core::Fcat's and core::FcatOnSignal's engine configurations (fcat.cpp
// keeps them internal). A drift here shows up as a traced/untraced digest
// mismatch on every FCAT op.
core::CollisionAwareConfig EngineConfigFor(const core::FcatOptions& o) {
  core::CollisionAwareConfig c;
  c.lambda = o.lambda;
  c.frame_size = o.frame_size;
  c.omega = o.omega;
  c.l_bits = o.l_bits;
  c.per_slot_advert = false;
  c.ack_with_slot_index = true;
  c.knows_true_n = false;
  c.initial_estimate = o.initial_estimate;
  c.estimator_window = o.estimator_window;
  c.hash_mode = o.hash_mode;
  c.empty_probe_threshold = o.empty_probe_threshold;
  c.oracle_termination = o.oracle_termination;
  c.fault = o.fault;
  c.timing = o.timing;
  return c;
}

core::CollisionAwareConfig EngineConfigFor(const core::FcatSignalOptions& o) {
  core::CollisionAwareConfig c;
  c.lambda = o.lambda;
  c.frame_size = o.frame_size;
  c.omega = o.omega;
  c.l_bits = o.l_bits;
  c.per_slot_advert = false;
  c.ack_with_slot_index = true;
  c.knows_true_n = false;
  c.hash_mode = false;
  c.empty_probe_threshold = o.empty_probe_threshold;
  c.oracle_termination = o.oracle_termination;
  c.fault = o.fault;
  c.timing = o.timing;
  return c;
}

sim::ProtocolFactory TracedFcat(const core::FcatOptions& o, Tracer* t) {
  return [o, t](std::span<const TagId> population, anc::Pcg32 rng) {
    using Fcat = DecoratedFcat<phy::IdealPhy, phy::IdealPhyConfig>;
    auto fcat = std::make_unique<Fcat>(
        "FCAT-" + std::to_string(o.lambda), population, rng,
        phy::IdealPhyConfig{o.lambda, o.resolution_success_prob,
                            o.singleton_corrupt_prob},
        EngineConfigFor(o), *t);
    return std::make_unique<TimedProtocol>(std::move(fcat), Span::kCoreStep,
                                           *t);
  };
}

sim::ProtocolFactory TracedFcatSignal(const core::FcatSignalOptions& o,
                                      Tracer* t) {
  return [o, t](std::span<const TagId> population, anc::Pcg32 rng) {
    phy::SignalPhyConfig cfg = o.signal;
    if (cfg.max_mixture == 0) cfg.max_mixture = o.lambda;
    using Fcat = DecoratedFcat<phy::SignalPhy, phy::SignalPhyConfig>;
    auto fcat = std::make_unique<Fcat>(
        "FCAT-" + std::to_string(o.lambda) + "-signal", population, rng, cfg,
        EngineConfigFor(o), *t);
    return std::make_unique<TimedProtocol>(std::move(fcat), Span::kCoreStep,
                                           *t);
  };
}

sim::ProtocolFactory Timed(sim::ProtocolFactory inner, Tracer* t) {
  return [inner = std::move(inner), t](std::span<const TagId> population,
                                       anc::Pcg32 rng) {
    return std::make_unique<TimedProtocol>(inner(population, rng),
                                           Span::kProtoStep, *t);
  };
}

// One closed-world inventory run through sim::RunSingle: every tag read,
// no run capped, and each read attributed to a singleton or a record.
std::string CheckClosedRun(const sim::SingleRunResult& r, std::size_t n_tags,
                           std::string* digest) {
  sim::PutRunMetrics(*digest, r.metrics);
  const sim::RunMetrics& m = r.metrics;
  if (r.capped) return "run hit the slot cap";
  if (m.tags_read != n_tags) {
    return "read " + std::to_string(m.tags_read) + " of " +
           std::to_string(n_tags) + " tags";
  }
  if (m.ids_from_singletons + m.ids_from_collisions != m.tags_read) {
    return "read ledger does not add up";
  }
  return "";
}

// ---- closed_fcat2 / signal_fcat2 ------------------------------------------

class ClosedFcat final : public Workload {
 public:
  explicit ClosedFcat(bool signal) : signal_(signal) {}

  std::string_view name() const override {
    return signal_ ? "signal_fcat2" : "closed_fcat2";
  }
  std::size_t warmup_ops() const override { return 20; }

  std::string Setup(std::uint64_t seed, const std::string&) override {
    if (signal_) {
      // The waveform harness defaults (bench_signal and friends).
      char program[] = "anc_bench";
      char* argv[] = {program, nullptr};
      const CliArgs args(1, argv);
      bench::HarnessOptions h;
      h.seed = seed;
      signal_setup_ = bench::SignalSetupFromFlags(args, h);
      eo_ = signal_setup_.experiment;
      factory_ = core::MakeFcatSignalFactory(signal_setup_.options);
    } else {
      eo_.n_tags = 10000;
      eo_.base_seed = seed;
      factory_ = core::MakeFcatFactory(bench::FcatFor(2));
    }
    return "";
  }

  OpResult RunOp(std::size_t index, Tracer* tracer) override {
    sim::ProtocolFactory traced;
    if (tracer != nullptr) {
      traced = signal_ ? TracedFcatSignal(signal_setup_.options, tracer)
                       : TracedFcat(bench::FcatFor(2), tracer);
    }
    const Clock::time_point t0 = Clock::now();
    const sim::SingleRunResult r =
        sim::RunSingle(tracer ? traced : factory_, eo_, index);
    OpResult out;
    out.work_s = MsSince(t0) / 1e3;
    out.slots = r.metrics.TotalSlots();
    out.error = CheckClosedRun(r, eo_.n_tags, &out.digest);
    return out;
  }

 private:
  bool signal_;
  bench::SignalBenchSetup signal_setup_;
  sim::ExperimentOptions eo_;
  sim::ProtocolFactory factory_;
};

// ---- coded_load1 -----------------------------------------------------------

class CodedLoad1 final : public Workload {
 public:
  std::string_view name() const override { return "coded_load1"; }
  std::size_t warmup_ops() const override { return 20; }

  std::string Setup(std::uint64_t seed, const std::string&) override {
    eo_.n_tags = 1024;  // load 1.0 against the 1024-slot budget
    eo_.base_seed = seed;
    irsa_ = core::MakeIrsaFactory();
    seeded_ = core::MakeSeededFactory();
    return "";
  }

  // IRSA run i, then SEEDED run i: pairing keeps op times unimodal.
  OpResult RunOp(std::size_t index, Tracer* tracer) override {
    OpResult out;
    for (const sim::ProtocolFactory* f : {&irsa_, &seeded_}) {
      const sim::ProtocolFactory traced =
          tracer ? Timed(*f, tracer) : sim::ProtocolFactory();
      const Clock::time_point t0 = Clock::now();
      const sim::SingleRunResult r =
          sim::RunSingle(tracer ? traced : *f, eo_, index);
      out.work_s += MsSince(t0) / 1e3;
      out.slots += r.metrics.TotalSlots();
      const std::string err = CheckClosedRun(r, eo_.n_tags, &out.digest);
      if (out.error.empty()) out.error = err;
    }
    return out;
  }

 private:
  sim::ExperimentOptions eo_;
  sim::ProtocolFactory irsa_, seeded_;
};

// ---- soak_ckpt -------------------------------------------------------------

class SoakCkpt final : public Workload {
 public:
  std::string_view name() const override { return "soak_ckpt"; }
  std::size_t warmup_ops() const override { return 1; }

  std::string Setup(std::uint64_t seed, const std::string& dir) override {
    if (!service::LookupServiceProfile("soak", &config_)) {
      return "soak profile missing";
    }
    so_.n_initial = 50;
    so_.base_seed = seed;
    factory_ = core::MakeFcatFactory(bench::FcatFor(2));
    store_path_ = dir + "/soak.ancs";
    ckpt_path_ = dir + "/soak.ckpt";
    return "";
  }

  OpResult RunOp(std::size_t index, Tracer* tracer) override {
    std::remove(ckpt_path_.c_str());
    store::StoreWriterOptions wo;
    wo.sync = store::SyncPolicy::kFlush;
    store::StoreFileSink sink(store_path_, wo);
    OpResult out;
    if (!sink.error().empty()) {
      out.error = sink.error();
      return out;
    }

    Clock::time_point last_epoch{};
    bool cut_pending = false;  // a cut opened, its file not yet measured
    const auto account_cut = [&] {
      if (!cut_pending) return;
      cut_pending = false;
      Counters& c = tracer->counters();
      ++c.checkpoint_cuts;
      std::error_code ec;
      c.checkpoint_bytes += std::filesystem::file_size(ckpt_path_, ec);
    };
    service::ResumableOptions res;
    res.checkpoint_every_epochs = kCheckpointEvery;
    res.checkpoint_path = ckpt_path_;
    res.on_epoch = [&](std::uint64_t slot) {
      const Clock::time_point now = Clock::now();
      if (last_epoch != Clock::time_point{}) {
        out.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(now - last_epoch)
                .count());
      }
      last_epoch = now;
      if (tracer == nullptr) return;
      account_cut();
      if ((slot / config_.epoch_slots) % kCheckpointEvery == 0) {
        tracer->BeginDeferred(Span::kCut);
        cut_pending = true;
      }
    };
    const sim::ProtocolFactory traced =
        tracer ? TracedFcat(bench::FcatFor(2), tracer) : sim::ProtocolFactory();
    const Clock::time_point t0 = Clock::now();
    const service::SloReport report = service::RunSoakResumable(
        tracer ? traced : factory_, config_, so_, index, &sink, res);
    const std::string finish_err = sink.Finish();
    out.work_s = MsSince(t0) / 1e3;
    if (tracer != nullptr) {
      tracer->CloseDeferred();
      account_cut();
      Counters& c = tracer->counters();
      ++c.soak_runs;
      c.store_bytes += sink.writer().bytes_written();
      for (const store::StoredRun& run : sink.writer().runs()) {
        c.store_events += run.n_events;
      }
    }

    out.slots = report.slots;
    service::PutSloReport(out.digest, report);
    ser::PutVarint(out.digest, store::Crc32(ReadFileBytes(store_path_)));
    service::ServiceCheckpoint ckpt;
    const std::string ckpt_err =
        service::ReadCheckpointFile(ckpt_path_, &ckpt);
    ser::PutVarint(out.digest, store::Crc32(ReadFileBytes(ckpt_path_)));

    if (!finish_err.empty()) {
      out.error = "store: " + finish_err;
    } else if (!ckpt_err.empty()) {
      out.error = ckpt_err;
    } else if (!report.ConservationOk()) {
      out.error = "conservation ledger does not add up";
    } else if (report.open_phy_records_end != 0) {
      out.error = std::to_string(report.open_phy_records_end) +
                  " phy records open after shutdown";
    } else if (!report.churn_supported) {
      out.error = "protocol does not support churn";
    }
    return out;
  }

 private:
  static constexpr std::uint64_t kCheckpointEvery = 5;

  service::ServiceConfig config_;
  service::SoakOptions so_;
  sim::ProtocolFactory factory_;
  std::string store_path_, ckpt_path_;
};

// ---- store_rw --------------------------------------------------------------

// Events numbered by the engine's frame counter. QueryFrameWindow also
// treats the service's churn events as frame-bearing, but those carry the
// inventory round in `frame`, so a window query returns them only from
// the blocks it happens to decode; the check leaves them out.
bool EngineFramed(trace::EventKind kind) {
  using K = trace::EventKind;
  return kind != K::kTdmaSlot && kind != K::kRunEnd && kind != K::kEpoch &&
         kind != K::kArrive && kind != K::kDepart && kind != K::kDetect;
}

void PutEvents(std::string& out, const std::vector<trace::TraceEvent>& events) {
  ser::PutVarint(out, events.size());
  for (const trace::TraceEvent& e : events) {
    ser::PutVarint(out, static_cast<std::uint64_t>(e.kind));
    ser::PutVarint(out, e.slot);
    ser::PutVarint(out, e.frame);
    ser::PutVarint(out, e.record);
    ser::PutVarint(out, e.id_digest);
  }
}

class StoreRw final : public Workload {
 public:
  std::string_view name() const override { return "store_rw"; }
  std::size_t warmup_ops() const override { return 1; }

  std::string Setup(std::uint64_t seed, const std::string& dir) override {
    seed_ = seed;
    path_ = dir + "/store.ancs";
    service::ServiceConfig config;
    if (!service::LookupServiceProfile("soak", &config)) {
      return "soak profile missing";
    }
    service::SoakOptions so;
    so.n_initial = 50;
    so.base_seed = seed;
    const sim::ProtocolFactory factory =
        core::MakeFcatFactory(bench::FcatFor(2));
    trace::MemorySink sink;
    slots_ = 0;
    for (std::size_t run = 0; run < kCorpusRuns; ++run) {
      slots_ += service::RunSoakSingle(factory, config, so, run, &sink).slots;
    }
    corpus_ = sink.TakeFile();
    v1_bytes_ = trace::EncodeTrace(corpus_).size();
    // Reference for the queries: per run, the engine-framed events'
    // indices ordered by frame.
    by_frame_.clear();
    for (const trace::RunTrace& run : corpus_.runs) {
      std::vector<std::uint32_t>& idx = by_frame_.emplace_back();
      for (std::uint32_t i = 0; i < run.events.size(); ++i) {
        if (EngineFramed(run.events[i].kind)) idx.push_back(i);
      }
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return run.events[a].frame < run.events[b].frame;
                       });
    }
    return "";
  }

  // One round: write the corpus, read it all back, then run seeded
  // frame-window queries, each checked against the full decode.
  OpResult RunOp(std::size_t index, Tracer* tracer) override {
    OpResult out;
    out.slots = slots_;

    const Clock::time_point w0 = Clock::now();
    if (tracer) tracer->Begin(Span::kStoreWrite);
    const std::string werr = Write(tracer);
    if (tracer) tracer->End();
    const double write_ms = MsSince(w0);
    if (!werr.empty()) {
      out.error = "write: " + werr;
      return out;
    }
    const std::string file = ReadFileBytes(path_);
    ser::PutVarint(out.digest, store::Crc32(file));

    const Clock::time_point r0 = Clock::now();
    if (tracer) tracer->Begin(Span::kStoreRead);
    store::StoreReader reader;
    std::string rerr = reader.Open(path_);
    trace::TraceFile decoded;
    if (rerr.empty()) rerr = reader.ReadAll(&decoded);
    if (tracer) tracer->End();
    const double read_ms = MsSince(r0);
    if (!rerr.empty()) {
      out.error = "read: " + rerr;
      return out;
    }
    if (!(decoded == corpus_)) out.error = "read-back differs from corpus";

    anc::Pcg32 rng(seed_ + index, 0x51ED5EEDULL);
    std::vector<trace::TraceEvent> got, want;
    std::vector<std::uint32_t> hits;
    store::WindowSeed window_seed;
    std::vector<Seek> seeks;
    double query_ms = 0;
    for (std::size_t q = 0; q < kQueriesPerRound; ++q) {
      const std::size_t run = rng.UniformBelow(
          static_cast<std::uint32_t>(decoded.runs.size()));
      const std::vector<trace::TraceEvent>& events = decoded.runs[run].events;
      const std::vector<std::uint32_t>& idx = by_frame_[run];
      const std::uint64_t max_frame =
          idx.empty() ? 0 : events[idx.back()].frame;
      const std::uint64_t lo =
          rng.UniformBelow(static_cast<std::uint32_t>(max_frame + 1));
      const std::uint64_t hi = lo + rng.UniformBelow(kMaxWindowFrames);
      seeks.emplace_back(run, lo);
      const Clock::time_point q0 = Clock::now();
      if (tracer) tracer->Begin(Span::kQuery);
      const std::string qerr =
          store::QueryFrameWindow(reader, run, lo, hi, &got, &window_seed);
      if (tracer) tracer->End();
      out.latency_ms.push_back(MsSince(q0));
      query_ms += out.latency_ms.back();
      if (!qerr.empty()) {
        out.error = "query: " + qerr;
        return out;
      }
      const auto frame_of = [&](std::uint32_t i) { return events[i].frame; };
      const auto first = std::partition_point(
          idx.begin(), idx.end(),
          [&](std::uint32_t i) { return frame_of(i) < lo; });
      const auto last = std::partition_point(
          first, idx.end(), [&](std::uint32_t i) { return frame_of(i) <= hi; });
      hits.assign(first, last);
      std::sort(hits.begin(), hits.end());
      want.clear();
      for (std::uint32_t i : hits) want.push_back(events[i]);
      PutEvents(out.digest, got);
      std::erase_if(got, [](const trace::TraceEvent& e) {
        return !EngineFramed(e.kind);
      });
      if (got != want && out.error.empty()) {
        out.error = "query result differs from a full decode";
      }
      if (tracer) {
        tracer->counters().query_blocks += BlocksRead(reader, run, lo, hi);
      }
    }
    out.work_s = (write_ms + read_ms + query_ms) / 1e3;

    if (tracer == nullptr) {
      twin_write_s_ = write_ms / 1e3;
      twin_read_s_ = read_ms / 1e3;
      twin_query_ms_ = out.latency_ms;
    } else {
      Decompose(*tracer, reader, seeks, file.size());
    }
    return out;
  }

 private:
  static constexpr std::size_t kCorpusRuns = 2;
  static constexpr std::size_t kQueriesPerRound = 500;
  static constexpr std::uint32_t kMaxWindowFrames = 8;

  using Seek = std::pair<std::size_t, std::uint64_t>;  // (run, frame)

  std::string Write(Tracer* tracer) {
    store::StoreWriter writer;
    std::string err = writer.Open(path_);
    if (!err.empty()) return err;
    for (const trace::RunTrace& run : corpus_.runs) {
      writer.BeginRun(run.header);
      for (const trace::TraceEvent& e : run.events) {
        if (tracer == nullptr) {
          writer.Add(e);
          continue;
        }
        const std::size_t blocks = writer.blocks().size();
        tracer->Begin(Span::kStoreAdd);
        writer.Add(e);
        tracer->EndAs(writer.blocks().size() > blocks ? Span::kFlush
                                                      : Span::kStoreAdd);
      }
      err = writer.EndRun();
      if (!err.empty()) return err;
    }
    return writer.Finish();
  }

  // Blocks QueryFrameWindow decodes for [lo, hi], from the footer index:
  // it reads from the seek target until a block reaches past the window.
  static std::uint64_t BlocksRead(const store::StoreReader& reader,
                                  std::size_t run, std::uint64_t lo,
                                  std::uint64_t hi) {
    const std::size_t start = reader.FindBlockForFrame(run, lo);
    if (start == store::kNoBlock) return 0;
    const store::StoredRun& sr = reader.runs()[run];
    std::uint64_t n = 0;
    for (std::size_t b = start; b < sr.first_block + sr.n_blocks; ++b) {
      ++n;
      if (reader.blocks()[b].max_frame > hi) break;
    }
    return n;
  }

  // Splits the write and read costs by layer: the writer's own block
  // partition (block_events per block, cut at run ends) goes through the
  // transform, LZ and CRC calls one by one, then back through LZ
  // decompression and the payload decoder.
  void Decompose(Tracer& t, const store::StoreReader& reader,
                 const std::vector<Seek>& seeks, std::size_t file_bytes) {
    const std::size_t block_events = store::StoreWriterOptions{}.block_events;
    Counters& c = t.counters();
    std::vector<trace::TraceEvent> chunk, decoded;
    std::string raw, comp, back;
    for (const trace::RunTrace& run : corpus_.runs) {
      for (std::size_t at = 0; at < run.events.size(); at += block_events) {
        const std::size_t end = std::min(run.events.size(), at + block_events);
        chunk.assign(run.events.begin() + static_cast<std::ptrdiff_t>(at),
                     run.events.begin() + static_cast<std::ptrdiff_t>(end));
        t.Begin(Span::kTransform);
        raw = store::EncodeBlockPayload(chunk);
        t.End();
        t.Begin(Span::kLzCompress);
        comp = store::LzCompress(raw);
        t.End();
        const bool stored_raw = comp.size() >= raw.size();
        t.Begin(Span::kCrc);
        (void)store::Crc32(stored_raw ? raw : comp);
        t.End();
        if (!stored_raw) {
          t.Begin(Span::kLzDecompress);
          store::LzDecompress(comp, raw.size(), &back);
          t.End();
        }
        t.Begin(Span::kDecode);
        store::DecodeBlockPayload(raw, chunk.size(), &decoded);
        t.End();
        ++c.store_blocks;
        c.store_raw_bytes += raw.size();
        c.store_comp_bytes += stored_raw ? raw.size() : comp.size();
        c.store_events += chunk.size();
      }
    }
    // Index seeks are tens of nanoseconds: time them in one batch.
    constexpr std::size_t kSeekReps = 20;
    t.Begin(Span::kSeek);
    for (std::size_t rep = 0; rep < kSeekReps; ++rep) {
      for (const auto& [run, frame] : seeks) {
        (void)reader.FindBlockForFrame(run, frame);
      }
    }
    t.End();
    c.seeks += kSeekReps * seeks.size();
    c.store_bytes += file_bytes;
    c.v1_bytes += v1_bytes_;
    c.write_s += twin_write_s_;
    c.read_s += twin_read_s_;
    for (double ms : twin_query_ms_) c.query_us.push_back(ms * 1e3);
  }

  std::uint64_t seed_ = 0;
  std::string path_;
  trace::TraceFile corpus_;
  std::uint64_t slots_ = 0;
  std::uint64_t v1_bytes_ = 0;
  std::vector<std::vector<std::uint32_t>> by_frame_;
  // Costs of the latest untraced op (the traced op's twin).
  double twin_write_s_ = 0, twin_read_s_ = 0;
  std::vector<double> twin_query_ms_;
};

}  // namespace

const std::vector<std::string_view>& WorkloadNames() {
  static const std::vector<std::string_view> names = {
      "closed_fcat2", "signal_fcat2", "coded_load1", "soak_ckpt", "store_rw"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name) {
  if (name == "closed_fcat2") return std::make_unique<ClosedFcat>(false);
  if (name == "signal_fcat2") return std::make_unique<ClosedFcat>(true);
  if (name == "coded_load1") return std::make_unique<CodedLoad1>();
  if (name == "soak_ckpt") return std::make_unique<SoakCkpt>();
  if (name == "store_rw") return std::make_unique<StoreRw>();
  return nullptr;
}

}  // namespace anc::perf
