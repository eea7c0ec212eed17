// Microbenchmarks of the signal-processing substrate: the per-slot
// kernels a reader implementation pays for — MSK encode, channel
// application, AWGN, demodulate+decode, mixing, amplitude estimation and
// full ANC resolution — plus the end-to-end rate of FCAT-2 over the
// waveform phy. Kernel rows report samples/second of the inner loop;
// the end-to-end row reports simulated slots per wall second, the number
// the batched-phy redesign is accountable for. Each kernel row is the
// median of several timed blocks, with the blocks' min-max. With --json
// each kernel becomes a {"kind":"kernel","samples_per_sec":...} point
// (plus "us_per_op" and its "us_per_op_min"/"us_per_op_max" over
// "blocks") and the end-to-end point carries "slots_per_sec", which CI
// schema-checks.
#include "bench_common.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "common/table.h"
#include "common/tag_id.h"
#include "signal/anc_resolver.h"
#include "signal/channel.h"
#include "signal/energy_estimator.h"
#include "signal/mixer.h"
#include "signal/waveform_codec.h"
#include "sim/population.h"

namespace {

using namespace anc;

template <typename T>
inline void Keep(T&& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

TagId RandomId(Pcg32& rng) {
  return TagId::FromPayload(static_cast<std::uint16_t>(rng() & 0xFFFF),
                            (std::uint64_t(rng()) << 32) | rng());
}

// Runs `body` with doubling iteration counts until one block takes at
// least 20 ms, then times kBlocks blocks of that many iterations and
// reports the median us/op with its min-max: a single block swings with
// the host (mix_2 read 0.83-2.45 us between runs of one binary).
// `samples_per_op` converts the median into kernel throughput.
template <typename F>
void TimeKernel(const char* label, std::size_t samples_per_op,
                TextTable* table, F&& body) {
  using clock = std::chrono::steady_clock;
  constexpr int kBlocks = 9;
  const auto time_block = [&](std::size_t iters) {
    const auto start = clock::now();
    for (std::size_t i = 0; i < iters; ++i) body();
    return std::chrono::duration<double>(clock::now() - start).count();
  };
  body();  // warm-up: touch caches, fill scratch capacity
  std::size_t iters = 1;
  while (time_block(iters) < 0.02 && iters < (std::size_t{1} << 24)) {
    iters *= 2;
  }
  std::array<double, kBlocks> us_per_op{};
  double seconds = 0.0;
  for (double& us : us_per_op) {
    const double block = time_block(iters);
    seconds += block;
    us = block * 1e6 / static_cast<double>(iters);
  }
  std::sort(us_per_op.begin(), us_per_op.end());
  const double median = us_per_op[kBlocks / 2];
  const double samples_per_sec =
      static_cast<double>(samples_per_op) * 1e6 / median;
  table->AddRow({label, TextTable::Num(median, 2),
                 TextTable::Num(us_per_op.front(), 2) + "-" +
                     TextTable::Num(us_per_op.back(), 2),
                 TextTable::Num(samples_per_sec / 1e6, 1)});
  bench::detail::RecordKernelJsonPoint(
      label, samples_per_sec, seconds,
      {median, us_per_op.front(), us_per_op.back(), kBlocks});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anc;
  const CliArgs args(argc, argv);
  bench::RequireKnownFlags(args, argv[0], bench::SignalFlagSpecs());
  const auto opts = bench::ParseHarness(args, 4);
  bench::SignalBenchSetup base = bench::SignalSetupFromFlags(args, opts);
  base.experiment.trace = bench::TraceStore(opts);
  bench::PrintHeader("Signal-chain microbenchmarks",
                     "per-slot kernel costs, ICDCS'10 Section II-B", opts);

  Pcg32 rng(opts.seed);
  const signal::WaveformCodec codec(8, 8);
  const std::size_t frame_samples =
      codec.frame_bits() * static_cast<std::size_t>(codec.samples_per_bit());
  const double noise25 = signal::NoisePowerForSnrDb(1.0, 25.0);

  // Shared fixtures: two channel-transformed frames, their mixture, and a
  // noisy reference — the exact shapes SignalPhy runs per slot.
  const TagId id_a = RandomId(rng), id_b = RandomId(rng);
  const signal::Buffer clean = codec.Encode(id_a);
  const signal::ChannelParams ch_a = signal::RandomChannel(rng);
  const signal::Buffer waves[] = {
      signal::ApplyChannel(clean, ch_a),
      signal::ApplyChannel(codec.Encode(id_b), signal::RandomChannel(rng))};
  signal::Buffer received = waves[0];
  signal::AddAwgn(received, noise25, rng);
  signal::Buffer mixed = signal::MixSignals(waves);
  signal::AddAwgn(mixed, noise25, rng);
  signal::Buffer ref = waves[0];
  signal::AddAwgn(ref, noise25, rng);
  const signal::Buffer refs[] = {ref};
  const std::span<const signal::Sample> mix_views[] = {
      std::span<const signal::Sample>(waves[0]),
      std::span<const signal::Sample>(waves[1])};

  std::printf("Kernels (one %zu-sample report frame per op):\n\n",
              frame_samples);
  TextTable kernels({"kernel", "us/op", "min-max", "Msamples/s"});
  signal::Buffer scratch(frame_samples);
  std::vector<std::uint8_t> bits_scratch;
  // SignalPhy's synthesis path: one phase-walk table reused across frames.
  signal::MskModulator modulator(codec.modulation());
  const std::vector<std::uint8_t> frame_a = codec.FrameBits(id_a);
  TimeKernel("msk_encode", frame_samples, &kernels,
             [&] { modulator.ModulateInto(frame_a, scratch); });
  TimeKernel("apply_channel", frame_samples, &kernels,
             [&] { signal::ApplyChannelInto(clean, ch_a, scratch); });
  TimeKernel("add_awgn", frame_samples, &kernels, [&] {
    scratch.assign(waves[0].begin(), waves[0].end());
    signal::AddAwgn(scratch, noise25, rng);
  });
  TimeKernel("demod_decode", frame_samples, &kernels,
             [&] { Keep(codec.DecodeInto(received, &bits_scratch)); });
  TimeKernel("mix_2", 2 * frame_samples, &kernels,
             [&] { signal::MixInto(mix_views, {}, &scratch); });
  TimeKernel("estimate_amplitudes", 2 * frame_samples, &kernels,
             [&] { Keep(signal::EstimateTwoAmplitudes(mixed)); });
  for (const auto& [label, mode] :
       {std::pair{"anc_resolve_direct", signal::SubtractionMode::kDirect},
        std::pair{"anc_resolve_lsq", signal::SubtractionMode::kLeastSquares},
        std::pair{"anc_resolve_energy", signal::SubtractionMode::kEnergy}}) {
    const signal::AncResolver resolver(mode, 8);
    TimeKernel(label, 2 * frame_samples, &kernels, [&] {
      Keep(resolver.ResolveLast(mixed, refs, codec.frame_bits()));
    });
  }
  std::printf("%s\n", kernels.Render().c_str());

  // End-to-end: a full FCAT-2 reading process on the waveform phy. The
  // slots/sec figure is the one BENCH_signal.json tracks across builds.
  std::printf(
      "End-to-end FCAT-2 over SignalPhy (N = %zu, %zu runs, snr %.0f dB,\n"
      "demod pool %u):\n\n",
      base.n_tags, opts.runs, base.options.signal.snr_db,
      base.options.signal.demod_pool_threads);
  const auto start = std::chrono::steady_clock::now();
  const auto agg = sim::RunExperiment(
      core::MakeFcatSignalFactory(base.options), base.experiment);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double sim_slots =
      agg.total_slots.mean() * static_cast<double>(agg.total_slots.count());
  const double slots_per_sec = wall > 0.0 ? sim_slots / wall : 0.0;
  TextTable e2e({"metric", "value"});
  e2e.AddRow({"tags read / run", TextTable::Num(agg.tags_read.mean(), 1)});
  e2e.AddRow({"slots / run", TextTable::Num(agg.total_slots.mean(), 0)});
  e2e.AddRow({"IDs from collisions",
              TextTable::Num(agg.ids_from_collisions.mean(), 0)});
  e2e.AddRow({"wall seconds", TextTable::Num(wall, 2)});
  e2e.AddRow({"slots / sec", TextTable::Num(slots_per_sec, 0)});
  std::printf("%s\n", e2e.Render().c_str());
  bench::detail::RecordJsonPoint("fcat2_signal_e2e", base.n_tags,
                                 base.experiment, agg, wall,
                                 /*fault_metrics=*/false, slots_per_sec);
  return 0;
}
