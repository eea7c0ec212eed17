// Beyond-paper ablation: the capture effect. RFID channels are
// power-diverse, so the strongest constituent of a collision can often be
// demodulated straight from the mixture — a free ID the paper's model
// ignores. The flip side: a captured tag is acknowledged without ever
// producing a clean reference waveform, so records containing it may
// never be resolvable by subtraction. This harness measures the net
// effect on the waveform phy across channel power spreads.
#include "bench_common.h"

#include "common/table.h"

int main(int argc, char** argv) {
  using namespace anc;
  const CliArgs args(argc, argv);
  bench::RequireKnownFlags(args, argv[0], bench::SignalFlagSpecs());
  const auto opts = bench::ParseHarness(args, 4);
  bench::SignalBenchSetup base = bench::SignalSetupFromFlags(args, opts);
  base.experiment.trace = bench::TraceStore(opts);
  const std::size_t n = base.n_tags;
  bench::PrintHeader("Ablation: capture effect on the waveform phy",
                     "beyond ICDCS'10 (power-diverse channels)", opts);

  auto run_with = [&](bool capture, double min_gain, double max_gain) {
    core::FcatSignalOptions o = base.options;
    o.signal.enable_capture = capture;
    o.signal.min_gain = min_gain;
    o.signal.max_gain = max_gain;
    return sim::RunExperiment(core::MakeFcatSignalFactory(o),
                              base.experiment);
  };

  TextTable table({"gain spread", "capture", "tags/sec",
                   "IDs from collisions", "slots/tag"});
  struct Spread {
    const char* label;
    double lo, hi;
  };
  for (const Spread& s : {Spread{"0.9-1.1 (near-equal)", 0.9, 1.1},
                          Spread{"0.6-1.4 (default)", 0.6, 1.4},
                          Spread{"0.3-2.0 (power-diverse)", 0.3, 2.0}}) {
    for (bool capture : {false, true}) {
      const auto agg = run_with(capture, s.lo, s.hi);
      table.AddRow(
          {s.label, capture ? "on" : "off",
           bench::ThroughputCell(agg),
           TextTable::Num(agg.ids_from_collisions.mean(), 0),
           TextTable::Num(agg.total_slots.mean() / static_cast<double>(n),
                          2)});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Measured shape: capture is a double-edged sword. A captured tag is\n"
      "acknowledged without ever leaving a clean reference waveform, so\n"
      "the ANC cascade starves (IDs-from-collisions collapses) — at\n"
      "modest power spreads the net effect is NEGATIVE. Only under strong\n"
      "power diversity do the free direct decodes outweigh the lost\n"
      "resolutions. Supports the paper's choice to build the protocol on\n"
      "resolution rather than capture.\n");
  return 0;
}
