// Figure 8: 27-point stencil discretization on the 3D HyperX, comparing all
// routing algorithms. Three panels:
//   (a) collectives only  — all algorithms except VAL perform well
//   (b) halo exchange only — DOR worst, VAL second worst, WARs best
//   (c) full application   — DimWAR/OmniWAR best, OmniWAR slightly ahead
// Run with 1 iteration (spread-out communication) and N iterations
// (back-to-back phases), like the paper. Lower is better.
//
// Flags: --scale, --algorithms, --halo-kb (default scaled to network size),
//        --iterations-list=1,4, --phase=collective|exchange|full|all, --seed
#include <cstdio>

#include "app/stencil.h"
#include "bench_common.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace hxwar;
  using namespace hxwar::bench;
  Flags flags;
  flags.parse(argc, argv);
  auto opts = parseBenchOptions(argc, argv, {});
  if (!requireSerialPoints(opts)) return 1;
  printHeader("Figure 8", "27-point stencil execution time (cycles, lower is better)", opts);

  const auto iterList = flags.f64List("iterations-list", {1, 4});
  const std::string phaseArg = flags.str("phase", "all");

  std::vector<std::pair<std::string, app::StencilMode>> phases;
  if (phaseArg == "all") {
    phases = {{"collective", app::StencilMode::kCollectiveOnly},
              {"exchange", app::StencilMode::kExchangeOnly},
              {"full", app::StencilMode::kFull}};
  } else {
    phases = {{phaseArg, app::stencilModeFromString(phaseArg)}};
  }

  for (const auto& [phaseName, mode] : phases) {
    std::printf("--- Fig. 8%c: %s-only %s---\n",
                phaseName == "collective" ? 'a' : (phaseName == "exchange" ? 'b' : 'c'),
                phaseName.c_str(), phaseName == "full" ? "(exchange+collective) " : "");
    harness::Table table({"algorithm", "iterations", "makespan", "per-iter", "msgs"});
    for (const double itD : iterList) {
      const auto iterations = static_cast<std::uint32_t>(itD);
      for (const auto& algorithm : opts.algorithms) {
        harness::ExperimentSpec spec = opts.spec;
        spec.routing = algorithm;
        harness::Experiment exp(spec);
        const topo::HyperX& topo = exp.hyperx();
        if (topo.numDims() != 3) {
          std::fprintf(stderr, "fig08_stencil: the stencil's process grid needs a 3-D "
                               "HyperX, got %s\n", topo.name().c_str());
          return 1;
        }
        app::StencilConfig sc;
        // Process grid = one process per node; grid shaped like the router
        // grid scaled by terminals (e.g. 4x4x4 routers x 4 terminals -> 8x8x4
        // procs).
        const std::uint32_t k = topo.terminalsPerRouter();
        sc.grid = {topo.width(0) * (k >= 2 ? 2 : 1), topo.width(1) * (k >= 4 ? 2 : 1),
                   topo.width(2) * (k >= 8 ? 2 : 1)};
        // The paper sends 100 kB per node per halo on 4,096 nodes; scale the
        // default with node count so the small preset finishes quickly.
        const std::uint64_t defaultHaloKb = topo.numNodes() >= 4096 ? 100 : 48;
        sc.haloBytesPerNode = flags.u64("halo-kb", defaultHaloKb) * 1024;
        sc.iterations = iterations;
        sc.mode = mode;
        sc.seed = opts.seed;
        app::StencilApp stencil(exp.network(), sc);
        const auto r = stencil.run();
        table.addRow({algorithm, std::to_string(iterations),
                      std::to_string(r.makespan),
                      harness::Table::num(static_cast<double>(r.makespan) / iterations, 0),
                      std::to_string(r.messages)});
      }
    }
    table.print();
    std::printf("\n");
  }
  return 0;
}
