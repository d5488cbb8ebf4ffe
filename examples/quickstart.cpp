// Quickstart: simulate a small 3D HyperX under uniform-random traffic with
// the paper's DimWAR routing and print latency/throughput.
//
// Usage: quickstart [--scale=small|paper] [--algorithm=dimwar] [--pattern=ur]
//                   [--load=0.3] [--seed=7]
#include <cstdio>

#include "common/flags.h"
#include "harness/experiment.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace hxwar;
  Flags flags;
  flags.parse(argc, argv);

  harness::ExperimentSpec spec = harness::scaleSpec(flags.str("scale", "small"));
  spec.routing = flags.str("algorithm", "dimwar");
  spec.pattern = flags.str("pattern", "ur");
  spec.injection.rate = flags.f64("load", 0.3);
  spec.injection.seed = flags.u64("seed", 7);

  harness::Experiment exp(spec);
  std::printf("topology : %s (%u routers, %u nodes)\n", exp.hyperx().name().c_str(),
              exp.network().numRouters(), exp.network().numNodes());
  std::printf("routing  : %s\n", exp.routing().info().name.c_str());
  std::printf("pattern  : %s, offered load %.2f flits/node/cycle\n\n", spec.pattern.c_str(),
              spec.injection.rate);

  const metrics::SteadyStateResult r = exp.run();

  harness::Table table({"metric", "value"});
  table.addRow({"saturated", r.saturated ? "yes" : "no"});
  table.addRow({"accepted (flits/node/cycle)", harness::Table::num(r.accepted, 3)});
  table.addRow({"latency mean (cycles)", harness::Table::num(r.latencyMean, 1)});
  table.addRow({"latency p50", harness::Table::num(r.latencyP50, 1)});
  table.addRow({"latency p99", harness::Table::num(r.latencyP99, 1)});
  table.addRow({"avg hops", harness::Table::num(r.avgHops, 2)});
  table.addRow({"avg deroutes", harness::Table::num(r.avgDeroutes, 3)});
  table.addRow({"packets measured", std::to_string(r.packetsMeasured)});
  table.addRow({"warmup cycles", std::to_string(r.warmupCycles)});
  table.print();
  return 0;
}
