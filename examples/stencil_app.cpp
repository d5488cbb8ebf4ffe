// Runs the 27-point stencil application model (halo exchange + dissemination
// allreduce) on a HyperX and reports the phase breakdown per routing
// algorithm — a miniature of the paper's Figure 8 pipeline with full control
// over the knobs.
//
// Usage: stencil_app [--scale=small] [--algorithm=omniwar] [--halo-kb=48]
//                    [--iterations=2] [--mode=full] [--linear-placement]
//                    [--collective-bytes=64] [--seed=21]
#include <cstdio>

#include "app/stencil.h"
#include "common/flags.h"
#include "harness/experiment.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace hxwar;
  Flags flags;
  flags.parse(argc, argv);

  harness::ExperimentSpec spec = harness::scaleSpec(flags.str("scale", "small"));
  spec.routing = flags.str("algorithm", "omniwar");
  harness::Experiment exp(spec);
  const topo::HyperX& topo = exp.hyperx();
  if (topo.numDims() != 3) {
    std::fprintf(stderr, "stencil_app: the process grid needs a 3-D HyperX, got %s\n",
                 topo.name().c_str());
    return 1;
  }

  app::StencilConfig sc;
  // One process per node: spread the router grid across process-grid dims.
  const std::uint32_t k = topo.terminalsPerRouter();
  sc.grid = {topo.width(0) * (k >= 2 ? 2 : 1), topo.width(1) * (k >= 4 ? 2 : 1),
             topo.width(2) * (k >= 8 ? 2 : 1)};
  sc.haloBytesPerNode = flags.u64("halo-kb", 48) * 1024;
  sc.iterations = static_cast<std::uint32_t>(flags.u64("iterations", 2));
  sc.mode = app::stencilModeFromString(flags.str("mode", "full"));
  sc.randomPlacement = !flags.b("linear-placement", false);
  sc.collectiveBytes = static_cast<std::uint32_t>(flags.u64("collective-bytes", 64));
  sc.seed = flags.u64("seed", 21);

  std::printf("27-point stencil on %s with %s routing\n", topo.name().c_str(),
              exp.routing().info().name.c_str());
  std::printf("process grid %ux%ux%u, halo %llu kB/node, %u iteration(s), %s placement\n\n",
              sc.grid[0], sc.grid[1], sc.grid[2],
              static_cast<unsigned long long>(sc.haloBytesPerNode / 1024), sc.iterations,
              sc.randomPlacement ? "random" : "linear");

  app::StencilApp stencil(exp.network(), sc);
  const auto r = stencil.run();

  harness::Table table({"metric", "value"});
  table.addRow({"makespan (cycles)", std::to_string(r.makespan)});
  table.addRow({"per iteration", harness::Table::num(
                                     static_cast<double>(r.makespan) / sc.iterations, 0)});
  table.addRow({"exchange proc-cycles", std::to_string(r.exchangeCycles)});
  table.addRow({"collective proc-cycles", std::to_string(r.collectiveCycles)});
  table.addRow({"application messages", std::to_string(r.messages)});
  table.addRow({"application bytes", std::to_string(r.bytes)});
  table.addRow({"network flits delivered", std::to_string(exp.network().flitsEjected())});
  table.print();

  const double exchangeShare =
      static_cast<double>(r.exchangeCycles) /
      std::max<std::uint64_t>(1, r.exchangeCycles + r.collectiveCycles);
  std::printf("\nexchange/collective time split: %.0f%% / %.0f%%\n", exchangeShare * 100.0,
              (1.0 - exchangeShare) * 100.0);
  return 0;
}
