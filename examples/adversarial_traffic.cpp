// Adversarial traffic deep-dive: runs one traffic pattern at a fixed load
// under several routing algorithms and shows *where* the traffic goes — the
// hottest links, the load imbalance across the fabric, and how many deroutes
// each algorithm spent. This makes the paper's source-vs-incremental argument
// visible: under URBy, DOR/UGAL funnel everything through a few Y-links the
// source cannot see, while DimWAR/OmniWAR spread the same traffic.
//
// Usage: adversarial_traffic [--pattern=urby] [--load=0.35]
//                            [--algorithms=dor,ugal,dimwar,omniwar]
//                            [--scale=small] [--cycles=6000] [--top=5]
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/flags.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "net/network.h"
#include "topo/hyperx.h"

namespace {

std::vector<std::string> splitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string describeLink(const hxwar::topo::HyperX& topo, hxwar::RouterId r,
                         hxwar::PortId p) {
  std::ostringstream os;
  std::vector<std::uint32_t> c;
  topo.coords(r, c);
  os << "(" << c[0];
  for (std::size_t d = 1; d < c.size(); ++d) os << "," << c[d];
  const auto mv = topo.portMove(r, p);
  os << ")->dim" << mv.dim << "@" << mv.toCoord;
  return os.str();
}

// Flits one router output port sent: cumulative, then over the window.
struct PortLoad {
  hxwar::RouterId router;
  hxwar::PortId port;
  bool toTerminal;
  std::uint64_t flits;
};

// Every router's output ports in (router, port) order, terminal ports
// included.
std::vector<PortLoad> portLoads(const hxwar::net::Network& network) {
  std::vector<PortLoad> ports;
  for (hxwar::RouterId r = 0; r < network.numRouters(); ++r) {
    const auto& router = network.router(r);
    for (hxwar::PortId p = 0; p < router.numPorts(); ++p) {
      ports.push_back({r, p, router.isTerminalPort(p), router.portFlitsSent(p)});
    }
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hxwar;
  Flags flags;
  flags.parse(argc, argv);

  harness::ExperimentSpec spec = harness::scaleSpec(flags.str("scale", "small"));
  spec.pattern = flags.str("pattern", "urby");
  spec.injection.rate = flags.f64("load", 0.35);
  const Tick cycles = flags.u64("cycles", 6000);
  const auto top = static_cast<std::size_t>(flags.u64("top", 5));
  const auto algorithms = splitCsv(flags.str("algorithms", "dor,ugal,dimwar,omniwar"));

  std::printf("Adversarial traffic anatomy: pattern=%s offered=%.2f\n\n",
              spec.pattern.c_str(), spec.injection.rate);

  for (const auto& algorithm : algorithms) {
    spec.routing = algorithm;
    harness::Experiment exp(spec);
    exp.injector().start();
    exp.sim().run(cycles / 2);  // warm up
    // Link loads are deltas of the cumulative per-port counters across the
    // measured window.
    std::vector<PortLoad> loads = portLoads(exp.network());
    const auto ejectedBefore = exp.network().flitsEjected();
    const Tick t0 = exp.sim().now();
    exp.sim().run(t0 + cycles);
    exp.injector().stop();
    const auto elapsed = static_cast<double>(std::max<Tick>(1, exp.sim().now() - t0));
    const std::vector<PortLoad> after = portLoads(exp.network());
    for (std::size_t i = 0; i < loads.size(); ++i) loads[i].flits = after[i].flits - loads[i].flits;
    // Most loaded first. Terminal ports stay in the sort although the table
    // skips them: std::sort is not stable, so the order it leaves equally
    // loaded links in depends on the whole sequence.
    std::sort(loads.begin(), loads.end(),
              [](const PortLoad& a, const PortLoad& b) { return a.flits > b.flits; });

    std::vector<double> utils;
    for (const PortLoad& l : loads) {
      if (!l.toTerminal) utils.push_back(static_cast<double>(l.flits) / elapsed);
    }
    std::sort(utils.begin(), utils.end());
    double sum = 0.0;
    for (const double u : utils) sum += u;
    const double mean = utils.empty() ? 0.0 : sum / utils.size();
    const double max = utils.empty() ? 0.0 : utils.back();
    const double accepted = static_cast<double>(exp.network().flitsEjected() - ejectedBefore) /
                            (static_cast<double>(exp.network().numNodes()) * cycles);
    std::printf("--- %s: accepted %.1f%%, link utilization mean %.2f / max %.2f "
                "(imbalance %.1fx)\n",
                algorithm.c_str(), accepted * 100.0, mean, max, mean > 0 ? max / mean : 0.0);

    harness::Table table({"link", "flits", "util", "deroute grants"});
    std::size_t shown = 0;
    for (const PortLoad& l : loads) {
      if (l.toTerminal) continue;
      table.addRow({describeLink(exp.hyperx(), l.router, l.port), std::to_string(l.flits),
                    harness::Table::num(static_cast<double>(l.flits) / elapsed, 2),
                    std::to_string(exp.network().router(l.router).portDeroutesGranted(l.port))});
      if (++shown >= top) break;
    }
    table.print();
    std::printf("\n");
  }
  std::printf("Reading the output: a high max/mean imbalance with low accepted throughput\n"
              "is the bottleneck the source-adaptive algorithms cannot see; incremental\n"
              "algorithms show near-1x imbalance at the same offered load.\n");
  return 0;
}
