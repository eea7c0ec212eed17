// Watches FCAT's embedded tag-count estimator converge during a live
// reading process (Section V-C): no pre-estimation step, just the
// per-frame collision counts.
//
//   ./estimator_demo [--tags=8000] [--lambda=2] [--seed=1]
#include <cstdio>

#include "common/cli.h"
#include "core/factories.h"
#include "sim/population.h"

using namespace anc;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const FlagSpec known[] = {
      {"tags", "population size (default 8000)"},
      {"lambda", "ANC decoder capability (default 2)"},
      {"seed", "RNG seed (default 1)"},
  };
  DieOnUnknownFlags(args, argv[0], known);
  const auto n_tags = static_cast<std::size_t>(args.GetInt("tags", 8000));
  const auto lambda = static_cast<unsigned>(args.GetInt("lambda", 2));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));

  Pcg32 master(seed);
  Pcg32 pop_rng = master.Split();
  Pcg32 proto_rng = master.Split();
  const auto population = sim::MakePopulation(n_tags, pop_rng);

  core::FcatOptions options;
  options.lambda = lambda;
  const auto fcat = core::MakeFcat(population, proto_rng, options);

  std::printf(
      "FCAT-%u reading %zu tags; the reader starts with no idea of N.\n\n",
      lambda, n_tags);
  std::printf("%10s %10s %12s %12s %10s\n", "slot", "read", "est. total N",
              "error", "frames");

  std::uint64_t slot = 0;
  std::uint64_t next_report = 30;
  while (!fcat->Finished() && slot < 100 * n_tags) {
    fcat->Step();
    ++slot;
    if (slot >= next_report) {
      next_report = next_report < 960 ? next_report * 2 : next_report + 2000;
      const double est = fcat->engine().EstimatedTotal();
      std::printf("%10llu %10llu %12.0f %11.1f%% %10zu\n",
                  static_cast<unsigned long long>(slot),
                  static_cast<unsigned long long>(fcat->metrics().tags_read),
                  est,
                  100.0 * (est - static_cast<double>(n_tags)) /
                      static_cast<double>(n_tags),
                  fcat->engine().estimator().InformativeFrames());
    }
  }

  const auto& m = fcat->metrics();
  std::printf(
      "\nDone: %llu tags in %llu slots (%.1f tags/s); %llu IDs came from "
      "collision records.\n",
      static_cast<unsigned long long>(m.tags_read),
      static_cast<unsigned long long>(m.TotalSlots()), m.Throughput(),
      static_cast<unsigned long long>(m.ids_from_collisions));
  std::printf(
      "The estimate ramps geometrically out of the bootstrap (saturated\n"
      "frames), then settles within the +-2%% band the paper's Fig. 3\n"
      "predicts — with zero dedicated estimation slots.\n");
  return m.tags_read == n_tags ? 0 : 1;
}
