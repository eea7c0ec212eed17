// Ablation: ANC-based collision *resolution* (FCAT) versus successive
// interference *cancellation* with transmit diversity (CRDSA, the
// satellite scheme the paper's Section III-C discusses). Both mine
// collision slots; they pay for it differently — FCAT with reader-side
// computation, CRDSA with a second transmission per tag (double energy,
// which matters for battery-powered tags) and per-frame buffering.
#include "bench_common.h"

#include "common/table.h"

int main(int argc, char** argv) {
  using namespace anc;
  const CliArgs args(argc, argv);
  bench::RequireKnownFlags(args, argv[0]);
  const auto opts = bench::ParseHarness(args, 8);
  bench::PrintHeader("Ablation: ANC resolution vs CRDSA cancellation",
                     "ICDCS'10 Section III-C context", opts);

  const phy::TimingModel timing = phy::TimingModel::ICode();
  std::vector<std::size_t> populations{2000, 10000};
  if (opts.full) populations = {1000, 5000, 10000, 20000};

  TextTable table({"N", "protocol", "tags/sec", "slots/tag", "tx/tag",
                   "IDs from collisions"});
  for (std::size_t n : populations) {
    struct Row {
      std::string name;
      sim::ProtocolFactory factory;
    };
    auto fcat = bench::FcatFor(2, timing);
    fcat.initial_estimate = static_cast<double>(n);
    protocols::IrsaConfig crdsa3;
    crdsa3.degrees = protocols::DegreeDistribution::Crdsa3();
    crdsa3.target_load = 0.8;
    const Row rows[] = {
        {"FCAT-2", core::MakeFcatFactory(fcat)},
        {"CRDSA-2", core::MakeCrdsaFactory(timing)},
        {"CRDSA-3", core::MakeIrsaFactory(timing, crdsa3)},
        {"DFSA", core::MakeDfsaFactory(timing)},
    };
    for (const Row& row : rows) {
      const auto agg = bench::Run(row.factory, n, opts, row.name);
      const auto per_tag = [n](double v) {
        return TextTable::Num(v / static_cast<double>(n), 2);
      };
      table.AddRow({TextTable::Int(static_cast<long long>(n)), row.name,
                    bench::ThroughputCell(agg),
                    per_tag(agg.total_slots.mean()),
                    per_tag(agg.tag_transmissions.mean()),
                    TextTable::Num(agg.ids_from_collisions.mean(), 0)});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Expected shape: FCAT-2 and CRDSA-2 both clear the 1/e wall; FCAT\n"
      "does it at ~1 transmission per tag per useful slot, CRDSA at ~2x\n"
      "the transmit energy.\n");
  return 0;
}
