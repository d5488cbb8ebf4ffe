// Extending the library: defines a custom traffic pattern (a diagonal
// coordinate shift) against the public TrafficPattern interface and sweeps
// it across routing algorithms — the intended workflow for studying a new
// workload against DimWAR/OmniWAR without touching library code.
//
// Usage: custom_pattern [--scale=small] [--shift=1] [--loads=0.1,0.3,0.5]
#include <algorithm>
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "metrics/steady_state.h"
#include "traffic/injector.h"
#include "traffic/pattern.h"

namespace {

using namespace hxwar;

// Every node sends to the router shifted by +shift in every dimension (same
// terminal index). A permutation that keeps every dimension unaligned, so
// minimal algorithms pay full distance while deroutes have room to spread.
class DiagonalShift final : public traffic::TrafficPattern {
 public:
  DiagonalShift(const topo::HyperX& topo, std::uint32_t shift)
      : topo_(topo), shift_(shift) {}

  std::string name() const override { return "DIAG"; }

  NodeId dest(NodeId src, Rng&) override {
    const RouterId r = topo_.nodeRouter(src);
    std::vector<std::uint32_t> c;
    topo_.coords(r, c);
    for (std::size_t d = 0; d < c.size(); ++d) {
      c[d] = (c[d] + shift_) % topo_.width(static_cast<std::uint32_t>(d));
    }
    const RouterId dst = topo_.routerAt(c);
    if (dst == r) return src;  // degenerate shift: injector skips self-sends
    return dst * topo_.terminalsPerRouter() + topo_.nodePort(src);
  }

 private:
  const topo::HyperX& topo_;
  std::uint32_t shift_;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.parse(argc, argv);
  harness::ExperimentSpec spec = harness::scaleSpec(flags.str("scale", "small"));
  const auto shift = static_cast<std::uint32_t>(flags.u64("shift", 1));
  const auto loads = flags.f64List("loads", {0.2, 0.4, 0.6});

  std::string shape = spec.params.at("widths");  // e.g. "4,4,4" -> "4x4x4"
  std::replace(shape.begin(), shape.end(), ',', 'x');
  std::printf("Custom pattern demo: diagonal +%u shift on %s HyperX\n\n", shift,
              shape.c_str());

  harness::Table table({"algorithm", "offered", "accepted", "lat_mean", "deroutes", "state"});
  for (const char* algorithm : {"dor", "ugal", "dimwar", "omniwar"}) {
    for (const double load : loads) {
      // The harness builds the network; the custom pattern drives it through
      // a plain SyntheticInjector (the experiment's own injector stays idle).
      spec.routing = algorithm;
      harness::Experiment exp(spec);
      DiagonalShift pattern(exp.hyperx(), shift);
      traffic::SyntheticInjector::Params inj = spec.injection;
      inj.rate = load;
      traffic::SyntheticInjector injector(exp.sim(), exp.network(), pattern, inj);
      const auto r = metrics::runSteadyState(exp.sim(), exp.network(), injector, spec.steady);
      table.addRow({algorithm, harness::Table::pct(load), harness::Table::pct(r.accepted),
                    r.saturated ? "-" : harness::Table::num(r.latencyMean, 1),
                    harness::Table::num(r.avgDeroutes, 3),
                    r.saturated ? "SATURATED" : "stable"});
      if (r.saturated) break;  // curve over for this algorithm
    }
  }
  table.print();
  return 0;
}
