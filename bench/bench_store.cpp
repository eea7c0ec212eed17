// Trace-store microbench: compression ratio, write throughput and
// seek-to-frame latency for the ANCSTORE container (src/store).
//
// Records a deterministic FCAT-2 soak (service smoke profile) in memory,
// then writes it through store::StoreWriter at two block sizes and times
// the write, a full read and the two seek paths a consumer cares about:
//
//   - write and read: each repeated kWriteReps times, reported as the
//     median and interquartile range of MB/s (v1 bytes per wall second).
//     A write is everything after StoreWriter::Open — the blocks, the
//     footer and Finish's final flush and close; a read is
//     StoreReader::Open plus ReadAll.
//   - index seek: FindBlockForFrame alone — a binary search over the
//     footer's running-max frame vector, so latency grows with
//     log(n_blocks). The two block sizes give two n_blocks points; the
//     per-seek nanoseconds should stay flat-ish while n_blocks grows 8x,
//     which is the O(log n) evidence the JSON records.
//   - block seek: FindBlockForFrame + ReadBlock (CRC check + LZ
//     decompress + columnar decode of one block) — the cost of actually
//     landing on the events.
//
// The compression ratio is measured against the v1 ANCTRACE encoding of
// the same runs (EncodeTrace), i.e. file bytes over file bytes, matching
// the >= 3x CI gate on the soak golden.
//
//   --n=N         initial population per soak run (default 50)
//   --trace=PATH  keep the 4096-event store at PATH (default: a file in a
//                 fresh mkdtemp directory, removed on exit)
#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/table.h"
#include "service/service.h"
#include "store/container.h"
#include "trace/binary.h"

namespace {

using namespace anc;

double Secs(std::chrono::steady_clock::time_point a,
            std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Median and quartiles of a sample (linear interpolation between order
// statistics).
struct Spread {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  return {at(0.25), at(0.5), at(0.75)};
}

// Writes and full reads per block size; their MB/s are reported as a
// median and IQR, not one sample.
constexpr std::size_t kWriteReps = 9;

struct StorePoint {
  std::size_t block_events = 0;
  std::size_t n_blocks = 0;
  std::uint64_t raw_bytes = 0;    // v1 ANCTRACE encoding
  std::uint64_t store_bytes = 0;  // ANCSTORE container
  double ratio = 0.0;
  Spread write_mbps;              // raw bytes in / wall second
  Spread read_mbps;               // raw bytes out / wall second
  double seek_index_ns = 0.0;     // FindBlockForFrame only
  double seek_block_us = 0.0;     // FindBlockForFrame + ReadBlock
  std::size_t seeks = 0;
};

double Mbps(std::uint64_t bytes, double seconds) {
  return seconds > 0.0 ? bytes / seconds / (1024.0 * 1024.0) : 0.0;
}

// One timed write of `file` to `path`. Returns "" on success.
std::string TimedWrite(const trace::TraceFile& file, const std::string& path,
                       const store::StoreWriterOptions& options,
                       double* seconds) {
  store::StoreWriter writer;
  std::string err = writer.Open(path, options);
  if (!err.empty()) return err;
  const auto t0 = std::chrono::steady_clock::now();
  for (const trace::RunTrace& run : file.runs) {
    writer.BeginRun(run.header);
    for (const trace::TraceEvent& e : run.events) writer.Add(e);
    writer.EndRun();
  }
  err = writer.Finish();
  *seconds = Secs(t0, std::chrono::steady_clock::now());
  return err;
}

// One timed open + full decode of `path`, checked against `file`.
std::string TimedRead(const trace::TraceFile& file, const std::string& path,
                      double* seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  trace::TraceFile back;
  const std::string err = store::ReadStoreFile(path, &back);
  *seconds = Secs(t0, std::chrono::steady_clock::now());
  if (!err.empty()) return err;
  return back == file ? "" : "read-back differs from the corpus";
}

// Writes `file` through the store at the given block size and times the
// write, read and seek paths. Returns false (with a message on stderr)
// on any store error — the bench must never report numbers from a
// failed write.
bool MeasurePoint(const trace::TraceFile& file, std::uint64_t raw_bytes,
                  const std::string& path, std::size_t block_events,
                  StorePoint* out) {
  store::StoreWriterOptions wo;
  wo.block_events = block_events;
  std::vector<double> write_mbps, read_mbps;
  for (std::size_t rep = 0; rep < kWriteReps; ++rep) {
    double seconds = 0.0;
    std::string err = TimedWrite(file, path, wo, &seconds);
    write_mbps.push_back(Mbps(raw_bytes, seconds));
    if (err.empty()) {
      err = TimedRead(file, path, &seconds);
      read_mbps.push_back(Mbps(raw_bytes, seconds));
    }
    if (!err.empty()) {
      std::fprintf(stderr, "store write/read (%zu-event blocks): %s\n",
                   block_events, err.c_str());
      return false;
    }
  }

  store::StoreReader reader;
  const std::string rerr = reader.Open(path);
  if (!rerr.empty()) {
    std::fprintf(stderr, "store open (%zu-event blocks): %s\n",
                 block_events, rerr.c_str());
    return false;
  }

  out->block_events = block_events;
  out->n_blocks = reader.blocks().size();
  out->raw_bytes = raw_bytes;
  out->store_bytes = reader.file_bytes();
  out->ratio = out->store_bytes
                   ? static_cast<double>(raw_bytes) / out->store_bytes
                   : 0.0;
  out->write_mbps = SpreadOf(write_mbps);
  out->read_mbps = SpreadOf(read_mbps);

  // Seek targets: every run, frames spread evenly across the run's
  // span. The same targets hit both timers so the numbers compare.
  std::vector<std::pair<std::size_t, std::uint64_t>> targets;
  constexpr std::size_t kFramesPerRun = 32;
  for (std::size_t run = 0; run < reader.runs().size(); ++run) {
    const store::StoredRun& sr = reader.runs()[run];
    std::uint64_t max_frame = 0;
    for (std::size_t b = sr.first_block; b < sr.first_block + sr.n_blocks;
         ++b) {
      if (reader.blocks()[b].max_frame > max_frame) {
        max_frame = reader.blocks()[b].max_frame;
      }
    }
    for (std::size_t i = 0; i < kFramesPerRun; ++i) {
      targets.emplace_back(run, max_frame * (i + 1) / kFramesPerRun);
    }
  }

  // Index-only seeks: cheap enough that one pass would measure clock
  // noise, so loop and fold the block index into a sink the optimizer
  // cannot drop.
  constexpr std::size_t kIndexReps = 2000;
  std::size_t sink = 0;
  const auto i0 = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < kIndexReps; ++rep) {
    for (const auto& [run, frame] : targets) {
      sink += reader.FindBlockForFrame(run, frame);
    }
  }
  const auto i1 = std::chrono::steady_clock::now();
  if (sink == static_cast<std::size_t>(-1)) std::printf(" ");  // keep sink
  out->seek_index_ns =
      Secs(i0, i1) * 1e9 / (kIndexReps * targets.size());

  // Full seeks: land on the block and decode it.
  std::vector<trace::TraceEvent> events;
  std::size_t decoded = 0;
  const auto b0 = std::chrono::steady_clock::now();
  for (const auto& [run, frame] : targets) {
    const std::size_t block = reader.FindBlockForFrame(run, frame);
    if (block == store::kNoBlock) continue;
    const std::string err = reader.ReadBlock(block, &events);
    if (!err.empty()) {
      std::fprintf(stderr, "seek decode failed: %s\n", err.c_str());
      return false;
    }
    decoded += events.size();
  }
  const auto b1 = std::chrono::steady_clock::now();
  out->seek_block_us = targets.empty()
                           ? 0.0
                           : Secs(b0, b1) * 1e6 / targets.size();
  out->seeks = targets.size();
  return decoded > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anc;
  const CliArgs args(argc, argv);
  bench::RequireKnownFlags(
      args, argv[0],
      {{"n", "initial population per soak run (default 50)"}});
  const auto opts = bench::ParseHarness(args, 2);
  bench::PrintHeader("Trace store: compression ratio and seek latency",
                     "store subsystem, no paper analogue", opts);

  // Deterministic corpus: the same FCAT-2 smoke soak the golden-trace CI
  // job records, scaled by --runs.
  service::ServiceConfig config;
  if (!service::LookupServiceProfile("smoke", &config)) {
    std::fprintf(stderr, "internal: smoke profile missing\n");
    return 2;
  }
  const auto n_initial = static_cast<std::size_t>(args.GetInt("n", 50));
  service::SoakOptions so;
  so.n_initial = n_initial;
  so.runs = opts.runs;
  so.base_seed = opts.seed;
  so.n_threads = opts.threads;
  trace::MemorySink recorded;
  so.trace = &recorded;
  (void)service::RunSoakExperiment(
      core::MakeFcatFactory(bench::FcatFor(2)), config, so);
  const trace::TraceFile file = recorded.TakeFile();
  const std::string raw = trace::EncodeTrace(file);
  std::uint64_t n_events = 0;
  for (const auto& run : file.runs) n_events += run.events.size();
  std::printf("corpus: %zu runs, %llu events, %zu v1 bytes\n\n",
              file.runs.size(), static_cast<unsigned long long>(n_events),
              raw.size());

  const bench::ScratchDir scratch("bench_store");
  if (scratch.path().empty()) {
    std::fprintf(stderr, "cannot create a scratch directory\n");
    return 1;
  }
  const std::string store_path = opts.trace_path.empty()
                                     ? scratch.File("points.ancstore")
                                     : opts.trace_path;

  TextTable table({"block events", "blocks", "store bytes", "ratio",
                   "write MB/s [IQR]", "read MB/s [IQR]", "idx seek ns",
                   "block seek us"});
  bench::detail::JsonState& j = bench::detail::Json();
  bool ok = true;
  // Small blocks first so the kept file (--trace) ends up written with
  // the 4096-event production default.
  for (const std::size_t block_events : {std::size_t{512},
                                         std::size_t{4096}}) {
    StorePoint p;
    if (!MeasurePoint(file, raw.size(), store_path, block_events, &p)) {
      ok = false;
      continue;
    }
    char ratio_buf[32];
    std::snprintf(ratio_buf, sizeof ratio_buf, "%.2fx", p.ratio);
    const auto spread = [](const Spread& s) {
      return TextTable::Num(s.median, 1) + " [" + TextTable::Num(s.q1, 1) +
             ", " + TextTable::Num(s.q3, 1) + "]";
    };
    table.AddRow({std::to_string(p.block_events),
                  std::to_string(p.n_blocks),
                  std::to_string(p.store_bytes), ratio_buf,
                  spread(p.write_mbps), spread(p.read_mbps),
                  TextTable::Num(p.seek_index_ns, 0),
                  TextTable::Num(p.seek_block_us, 1)});
    if (!j.path.empty()) {
      using bench::detail::JsonNum;
      j.points.push_back(
          "{\"label\":\"block=" + std::to_string(p.block_events) + "\"" +
          ",\"kind\":\"store\",\"block_events\":" +
          std::to_string(p.block_events) +
          ",\"n_blocks\":" + std::to_string(p.n_blocks) +
          ",\"n_events\":" + std::to_string(n_events) +
          ",\"raw_bytes\":" + std::to_string(p.raw_bytes) +
          ",\"store_bytes\":" + std::to_string(p.store_bytes) +
          ",\"ratio\":" + JsonNum(p.ratio) +
          ",\"write_reps\":" + std::to_string(kWriteReps) +
          ",\"write_mbps\":" + JsonNum(p.write_mbps.median) +
          ",\"write_mbps_q1\":" + JsonNum(p.write_mbps.q1) +
          ",\"write_mbps_q3\":" + JsonNum(p.write_mbps.q3) +
          ",\"read_mbps\":" + JsonNum(p.read_mbps.median) +
          ",\"read_mbps_q1\":" + JsonNum(p.read_mbps.q1) +
          ",\"read_mbps_q3\":" + JsonNum(p.read_mbps.q3) +
          ",\"seek_index_ns\":" + JsonNum(p.seek_index_ns) +
          ",\"seek_block_us\":" + JsonNum(p.seek_block_us) +
          ",\"seeks\":" + std::to_string(p.seeks) + "}");
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("write and read MB/s are the median [IQR] of %zu timed "
              "writes and full reads (v1 bytes per second). index seek is "
              "a binary search over per-run running-max frames: "
              "nanoseconds per seek should stay near-flat as blocks grow "
              "8x (O(log n)); block seek adds one block's CRC + decompress "
              "+ decode.\n",
              kWriteReps);
  return ok ? 0 : 1;
}
