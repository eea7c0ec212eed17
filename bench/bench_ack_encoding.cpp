// Ablation (Section V-A, third inefficiency): acknowledging IDs resolved
// from collision records by 23-bit slot index (FCAT) versus by the full
// 96-bit ID (SCAT style), plus the per-slot vs per-frame advertisement
// cost. Together these are FCAT's entire advantage over SCAT.
#include "bench_common.h"

#include "common/table.h"

int main(int argc, char** argv) {
  using namespace anc;
  const CliArgs args(argc, argv);
  const auto opts = bench::ParseHarness(args, 8);
  bench::RequireKnownFlags(args, argv[0],
                           {{"tags", "population size (default 10000)"}});
  const auto n = static_cast<std::size_t>(args.GetInt("tags", 10000));
  bench::PrintHeader("Ablation: acknowledgement encoding & advertisement",
                     "ICDCS'10 Section V-A", opts);

  const phy::TimingModel timing = phy::TimingModel::ICode();
  TextTable table({"variant", "tags/sec", "slots", "overhead s/1k tags"});

  struct Variant {
    const char* name;
    bool per_slot_advert;
    bool slot_index_acks;
    bool knows_n;
  };
  const Variant variants[] = {
      {"FCAT (frame advert, 23-bit index acks)", false, true, false},
      {"frame advert, 96-bit ID acks", false, false, false},
      {"per-slot advert, 23-bit index acks", true, true, true},
      {"SCAT (per-slot advert, 96-bit ID acks)", true, false, true},
  };

  for (const Variant& v : variants) {
    sim::ProtocolFactory factory = [&, v](std::span<const TagId> population,
                                          anc::Pcg32 rng)
        -> std::unique_ptr<sim::Protocol> {
      core::CollisionAwareConfig config;
      config.lambda = 2;
      config.frame_size = v.per_slot_advert ? 1 : 30;
      config.per_slot_advert = v.per_slot_advert;
      config.ack_with_slot_index = v.slot_index_acks;
      config.knows_true_n = v.knows_n;
      config.initial_estimate = static_cast<double>(population.size());
      config.timing = timing;
      return std::make_unique<core::EngineProtocol<phy::IdealPhy>>(
          "variant", population, rng,
          phy::IdealPhyConfig{config.lambda, 1.0, 0.0}, config);
    };
    const auto result = bench::Run(factory, n, opts);
    const double overhead =
        result.elapsed_seconds.mean() -
        result.total_slots.mean() * timing.SlotSeconds();
    table.AddRow({v.name, bench::ThroughputCell(result),
                  TextTable::Num(result.total_slots.mean(), 0),
                  TextTable::Num(1000.0 * overhead / static_cast<double>(n),
                                 2)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Slot counts are nearly identical; the wall-clock spread is pure\n"
      "protocol overhead — the Section V-A story.\n");
  return 0;
}
