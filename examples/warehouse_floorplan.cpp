// 2D deployment demo (src/deploy): a long warehouse hall covered by a
// line of readers that cannot all transmit at once — overlapping coverage
// disks interfere, so a scheduler multiplexes them on a global TDMA
// clock. The demo prints the interference graph and its coloring, walks
// one full deployment in detail (per-reader duty cycles and sharing
// counters), then compares scheduler policies and cross-reader record
// sharing over multiple runs through the shared harness flags.
//
//   ./warehouse_floorplan [--tags=600] [--rows=1] [--cols=4]
//                         [--overlap=0.3] [--runs=5] [--threads=N]
//                         [--json=path]
#include "bench_common.h"

#include "common/table.h"
#include "deploy/deployment.h"
#include "sim/population.h"

using namespace anc;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::RequireKnownFlags(
      args, argv[0],
      {{"tags", "tags on the floor (default 600)"},
       {"rows", "reader grid rows (default 1)"},
       {"cols", "reader grid columns (default 4)"},
       {"overlap", "extra coverage radius fraction (default 0.3)"}});
  const auto opts = bench::ParseHarness(args, 5);

  deploy::DeploymentConfig config;
  config.reader_rows = static_cast<std::size_t>(args.GetInt("rows", 1));
  config.reader_cols = static_cast<std::size_t>(args.GetInt("cols", 4));
  config.overlap = args.GetDouble("overlap", 0.3);
  // 20m cells; a 1x4 line is an 80m x 20m hall whose interference graph
  // is a path — the sparse regime where concurrent schedules pay off.
  config.floor = {20.0 * static_cast<double>(config.reader_cols),
                  20.0 * static_cast<double>(config.reader_rows)};
  config.layout.placement = deploy::TagPlacement::kClustered;
  const auto n_tags = static_cast<std::size_t>(args.GetInt("tags", 600));

  bench::PrintHeader("Warehouse floor plan (2D multi-reader deployment)",
                     "deployment extension of ICDCS'10 Section I", opts);
  std::printf(
      "%.0fm x %.0fm floor, %zu clustered tags, %zux%zu reader grid, "
      "overlap %.2f\n\n",
      config.floor.width, config.floor.height, n_tags, config.reader_rows,
      config.reader_cols, config.overlap);

  const phy::TimingModel timing = phy::TimingModel::ICode();
  const auto fcat = core::MakeFcatFactory(bench::FcatFor(2, timing));

  // One deployment in detail: coloring TDMA with record sharing on.
  {
    anc::Pcg32 pop_rng(opts.seed);
    const auto tags = sim::MakePopulation(n_tags, pop_rng);
    deploy::DeploymentConfig detailed = config;
    detailed.policy = deploy::SchedulerPolicy::kColoring;
    detailed.share_records = true;
    const auto r = deploy::RunDeployment(tags, detailed, fcat, opts.seed);

    std::printf("Detailed run (coloring TDMA, record sharing on):\n");
    TextTable table({"reader", "at", "covered", "duty", "read", "from coll",
                     "injected"});
    for (std::size_t i = 0; i < r.per_reader.size(); ++i) {
      const auto& rr = r.per_reader[i];
      char at[32];
      std::snprintf(at, sizeof at, "(%.0f,%.0f)", rr.position.center.x,
                    rr.position.center.y);
      table.AddRow({std::to_string(i), at, std::to_string(rr.covered_tags),
                    TextTable::Num(rr.duty_cycle, 2),
                    std::to_string(rr.metrics.tags_read),
                    std::to_string(rr.metrics.ids_from_collisions),
                    std::to_string(rr.metrics.ids_injected)});
    }
    std::printf("%s", table.Render().c_str());
    std::printf(
        "%zu/%zu unique IDs in %llu global slots (%.2f s makespan, slot "
        "efficiency %.2f);\n%llu duplicate reads, %llu records closed by a "
        "neighbour's broadcast.\n\n",
        r.unique_ids, r.n_tags,
        static_cast<unsigned long long>(r.global_slots), r.makespan_seconds,
        r.slot_efficiency, static_cast<unsigned long long>(r.duplicate_reads),
        static_cast<unsigned long long>(r.shared_resolutions));
  }

  // Multi-run comparison: scheduler policies, then sharing on top of the
  // best one.
  TextTable table(
      {"configuration", "makespan (s)", "global slots", "dup reads"});
  auto row = [&](const std::string& name, deploy::SchedulerPolicy policy,
                 bool share) {
    deploy::DeploymentConfig c = config;
    c.policy = policy;
    c.share_records = share;
    const auto r = bench::Run(deploy::MakeDeploymentFactory(c, fcat), n_tags,
                              opts, name);
    table.AddRow({name, TextTable::Num(r.elapsed_seconds.mean(), 2),
                  TextTable::Num(r.frames.mean(), 0),
                  TextTable::Num(r.duplicate_receptions.mean(), 0)});
  };
  row("sequential", deploy::SchedulerPolicy::kSequential, false);
  row("colorwave", deploy::SchedulerPolicy::kColorwave, false);
  row("coloring", deploy::SchedulerPolicy::kColoring, false);
  row("coloring + sharing", deploy::SchedulerPolicy::kColoring, true);
  std::printf("Over %zu runs (FCAT-2 per reader):\n%s\n", opts.runs,
              table.Render().c_str());
  std::printf(
      "Coloring activates non-interfering readers concurrently; sharing\n"
      "then turns overlap-zone duplicates into cross-reader cascade fuel.\n");
  return 0;
}
