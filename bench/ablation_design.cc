// Ablations of the design choices DESIGN.md calls out:
//   1. OmniWAR deroute budget M (VCs vs. worst-case throughput on DCR)
//   2. OmniWAR back-to-back same-dimension deroute restriction (§5.2 opt.)
//   3. Weight bias (minimal-path stickiness) on UR and BC
//   4. VC count sensitivity for DimWAR (spare VCs as HoL relief)
//   5. Arbitration policy (age-based vs. round-robin)
//   6. HyperX link trunking T (per-dimension bandwidth vs. ports)
//
// Flags: --scale=small --seed=7
//        --section=all|deroutes|b2b|bias|vcs|arbiter|trunking
#include <cstdio>

#include "bench_common.h"
#include "harness/table.h"

namespace {

using namespace hxwar;
using namespace hxwar::bench;

harness::ExperimentSpec quick(harness::ExperimentSpec base) {
  base.steady.maxWarmupWindows = 14;
  base.steady.measureWindow = 2500;
  base.steady.drainWindow = 6000;
  return base;
}

void derouteBudget(const BenchOptions& opts) {
  // BC keeps every dimension unaligned, so a full-distance packet can only
  // deroute out of its saturated direct links if M > 0: the deroute budget
  // is what buys worst-case throughput (and costs VCs). DCR, by contrast, is
  // defeated by adaptive dimension ORDER, which every M provides.
  std::printf("--- OmniWAR deroute budget M: VCs required (N+M) vs. throughput ---\n");
  harness::Table table({"M", "classes (VCs)", "BC accepted @ 40%", "UR accepted @ 90%"});
  for (const std::uint32_t m : {0u, 1u, 2u, 3u, 5u}) {
    harness::ExperimentSpec spec = quick(opts.spec);
    spec.routing = "omniwar";
    spec.params["omni-deroutes"] = std::to_string(m);
    if (3 + m > spec.net.router.numVcs) break;  // needs N+M VCs
    spec.pattern = "bc";
    spec.injection.rate = 0.4;
    const double bc = harness::Experiment(spec).run().accepted;
    spec.pattern = "ur";
    spec.injection.rate = 0.9;
    const double ur = harness::Experiment(spec).run().accepted;
    table.addRow({m == 0 ? "0 (deroutes only on slack)" : std::to_string(m),
                  std::to_string(3 + m), harness::Table::pct(bc), harness::Table::pct(ur)});
  }
  table.print();
  std::printf("\n");
}

void backToBack(const BenchOptions& opts) {
  std::printf("--- OmniWAR back-to-back same-dimension deroute restriction (§5.2) ---\n");
  harness::Table table({"restriction", "pattern", "accepted", "lat_mean", "deroutes"});
  for (const bool restrict_ : {false, true}) {
    for (const char* pattern : {"bc", "dcr"}) {
      harness::ExperimentSpec spec = quick(opts.spec);
      spec.routing = "omniwar";
      spec.params["omni-restrict-b2b"] = restrict_ ? "true" : "false";
      spec.pattern = pattern;
      spec.injection.rate = 0.4;
      const auto r = harness::Experiment(spec).run();
      table.addRow({restrict_ ? "on" : "off", pattern, harness::Table::pct(r.accepted),
                    r.saturated ? "-" : harness::Table::num(r.latencyMean, 1),
                    harness::Table::num(r.avgDeroutes, 3)});
    }
  }
  table.print();
  std::printf("\n");
}

void weightBias(const BenchOptions& opts) {
  std::printf("--- Weight bias (congestion + bias) x hops: stickiness to minimal ---\n");
  harness::Table table({"bias", "UR@80% accepted", "UR deroutes", "BC@40% accepted",
                        "BC lat_mean"});
  for (const double bias : {0.5, 1.0, 4.0, 16.0, 64.0}) {
    harness::ExperimentSpec spec = quick(opts.spec);
    spec.routing = "dimwar";
    spec.net.router.weightBias = bias;
    spec.pattern = "ur";
    spec.injection.rate = 0.8;
    const auto ur = harness::Experiment(spec).run();
    spec.pattern = "bc";
    spec.injection.rate = 0.4;
    const auto bc = harness::Experiment(spec).run();
    table.addRow({harness::Table::num(bias, 1), harness::Table::pct(ur.accepted),
                  harness::Table::num(ur.avgDeroutes, 3), harness::Table::pct(bc.accepted),
                  bc.saturated ? "-" : harness::Table::num(bc.latencyMean, 1)});
  }
  table.print();
  std::printf("(too small: deroutes on noise erode UR; too large: BC adapts late)\n\n");
}

void vcCount(const BenchOptions& opts) {
  std::printf("--- VC count: DimWAR needs 2 classes; spares reduce HoL blocking ---\n");
  harness::Table table({"VCs", "UR@80% accepted", "UR lat_mean", "BC@40% accepted"});
  for (const std::uint32_t vcs : {2u, 4u, 8u}) {
    harness::ExperimentSpec spec = quick(opts.spec);
    spec.routing = "dimwar";
    spec.net.router.numVcs = vcs;
    spec.pattern = "ur";
    spec.injection.rate = 0.8;
    const auto ur = harness::Experiment(spec).run();
    spec.pattern = "bc";
    spec.injection.rate = 0.4;
    const auto bc = harness::Experiment(spec).run();
    table.addRow({std::to_string(vcs), harness::Table::pct(ur.accepted),
                  ur.saturated ? "-" : harness::Table::num(ur.latencyMean, 1),
                  harness::Table::pct(bc.accepted)});
  }
  table.print();
  std::printf("\n");
}

void arbitration(const BenchOptions& opts) {
  std::printf("--- Arbitration policy: age-based (paper) vs. round-robin ---\n");
  harness::Table table({"policy", "UR@80% lat_mean", "UR lat_p99", "BC@40% lat_mean"});
  for (const auto policy : {net::ArbiterPolicy::kAgeBased, net::ArbiterPolicy::kRoundRobin}) {
    harness::ExperimentSpec spec = quick(opts.spec);
    spec.routing = "dimwar";
    spec.net.router.arbiter = policy;
    spec.pattern = "ur";
    spec.injection.rate = 0.8;
    const auto ur = harness::Experiment(spec).run();
    spec.pattern = "bc";
    spec.injection.rate = 0.4;
    const auto bc = harness::Experiment(spec).run();
    table.addRow({policy == net::ArbiterPolicy::kAgeBased ? "age-based" : "round-robin",
                  ur.saturated ? "-" : harness::Table::num(ur.latencyMean, 1),
                  ur.saturated ? "-" : harness::Table::num(ur.latencyP99, 1),
                  bc.saturated ? "-" : harness::Table::num(bc.latencyMean, 1)});
  }
  table.print();
  std::printf("(age-based arbitration bounds tail latency; the paper's platform uses it)\n\n");
}

void trunking(const BenchOptions& opts) {
  std::printf("--- HyperX trunking T: parallel links per dimension pair ---\n");
  std::printf("(2D 4x4, K=4: T=2 doubles per-dimension bandwidth at 6 extra ports)\n");
  harness::Table table({"T", "ports/router", "BC accepted @ 60%", "UR accepted @ 90%"});
  for (const std::uint32_t t : {1u, 2u}) {
    harness::ExperimentSpec spec = quick(opts.spec);
    spec.routing = "dimwar";
    spec.params["widths"] = "4,4";
    spec.params["terminals"] = "4";
    spec.params["trunking"] = std::to_string(t);
    spec.pattern = "bc";
    spec.injection.rate = 0.6;
    harness::Experiment bcExp(spec);
    const auto bc = bcExp.run();
    spec.pattern = "ur";
    spec.injection.rate = 0.9;
    const auto ur = harness::Experiment(spec).run();
    table.addRow({std::to_string(t), std::to_string(bcExp.topology().numPorts(0)),
                  harness::Table::pct(bc.accepted), harness::Table::pct(ur.accepted)});
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.parse(argc, argv);
  auto opts = parseBenchOptions(argc, argv, {});
  printHeader("Design ablations", "Sensitivity of the §5 design choices", opts);
  const std::string section = flags.str("section", "all");
  if (section == "all" || section == "deroutes") derouteBudget(opts);
  if (section == "all" || section == "b2b") backToBack(opts);
  if (section == "all" || section == "bias") weightBias(opts);
  if (section == "all" || section == "vcs") vcCount(opts);
  if (section == "all" || section == "arbiter") arbitration(opts);
  if (section == "all" || section == "trunking") trunking(opts);
  return 0;
}
