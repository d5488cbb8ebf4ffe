// Section 3.2 — irregular workloads: "a small job might only consume a few
// 10s of nodes but have very high bandwidth requirements between its nodes.
// A very large job might be running at the same time and some of its traffic
// will need to cross the area in which the small job resides."
//
// Setup: a small job owns one Y-Z plane of routers (x = 1) and hammers
// terminal-rate traffic among its own nodes (localized congestion). A large
// background job runs uniform-random traffic at modest load across all other
// nodes; much of it must cross the hot plane on minimal paths.
//
// The paper's argument: source-adaptive routing either runs straight into
// the localized congestion (minimal) or, once backpressure finally reaches
// the source, over-reacts by load-balancing globally (2x bandwidth). An
// incremental algorithm deroutes exactly where the congestion sits. We
// report the background job's latency and the network-wide deroute count.
//
// Flags: --scale=small --bg-load=0.2 --hot-load=0.9 --cycles=9000
#include <cstdio>

#include "bench_common.h"
#include "harness/table.h"
#include "metrics/stats.h"
#include "traffic/injector.h"
#include "traffic/pattern.h"

namespace {

using namespace hxwar;

// Uniform random among the small job's own nodes.
class SubsetUniform final : public traffic::TrafficPattern {
 public:
  explicit SubsetUniform(std::vector<NodeId> nodes) : nodes_(std::move(nodes)) {}
  std::string name() const override { return "subset-ur"; }
  NodeId dest(NodeId src, Rng& rng) override {
    for (;;) {
      const NodeId d = nodes_[rng.pickIndex(nodes_)];
      if (d != src) return d;
    }
  }

 private:
  std::vector<NodeId> nodes_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace hxwar::bench;
  Flags flags;
  flags.parse(argc, argv);
  auto opts = parseBenchOptions(argc, argv, {});
  if (!requireSerialPoints(opts)) return 1;
  printHeader("Section 3.2", "Irregular workloads: localized small job vs. background job",
              opts);

  const double bgLoad = flags.f64("bg-load", 0.2);
  const double hotLoad = flags.f64("hot-load", 0.9);
  const Tick cycles = flags.u64("cycles", 9000);

  std::printf("small job: all terminals of the x=1 router plane at %.0f%% load among "
              "themselves\nbackground: uniform random at %.0f%% load on all other nodes\n\n",
              hotLoad * 100.0, bgLoad * 100.0);

  harness::Table table({"algorithm", "bg lat mean", "bg lat p99", "bg accepted/offered",
                        "hot-job lat", "deroutes/pkt"});
  for (const auto& algorithm : opts.algorithms) {
    harness::ExperimentSpec spec = opts.spec;
    spec.routing = algorithm;
    harness::Experiment exp(spec);
    const auto& topo = exp.hyperx();

    // Partition nodes: the small job owns every terminal whose router has
    // x-coordinate 1.
    std::vector<std::uint8_t> hotMask(exp.network().numNodes(), 0);
    std::vector<std::uint8_t> bgMask(exp.network().numNodes(), 1);
    std::vector<NodeId> hotNodes;
    for (NodeId n = 0; n < exp.network().numNodes(); ++n) {
      if (topo.coord(topo.nodeRouter(n), 0) == 1) {
        hotMask[n] = 1;
        bgMask[n] = 0;
        hotNodes.push_back(n);
      }
    }

    SubsetUniform hotPattern(hotNodes);
    traffic::UniformRandom bgPattern(exp.network().numNodes());

    traffic::SyntheticInjector::Params hotParams = spec.injection;
    hotParams.rate = hotLoad;
    hotParams.nodeMask = hotMask;
    hotParams.seed = spec.injection.seed + 1;
    traffic::SyntheticInjector hotInj(exp.sim(), exp.network(), hotPattern, hotParams);

    traffic::SyntheticInjector::Params bgParams = spec.injection;
    bgParams.rate = bgLoad;
    bgParams.nodeMask = bgMask;
    traffic::SyntheticInjector bgInj(exp.sim(), exp.network(), bgPattern, bgParams);

    metrics::SampleStats bgLat;
    metrics::StreamingStats hotLat;
    metrics::StreamingStats deroutes;
    std::uint64_t bgFlits = 0;
    const Tick warm = cycles / 3;
    Tick measureStart = kTickInvalid;  // nothing recorded until warmed up
    net::CallbackListener cb105;
    cb105.ejected = [&](const net::Packet& p) {
      if (measureStart == kTickInvalid || p.createdAt < measureStart) return;
      deroutes.add(p.deroutes);
      if (hotMask[p.src]) {
        hotLat.add(static_cast<double>(p.ejectedAt - p.createdAt));
      } else {
        bgLat.add(static_cast<double>(p.ejectedAt - p.createdAt));
        bgFlits += p.sizeFlits;
      }
    };
    exp.network().setListener(&cb105);

    hotInj.start();
    bgInj.start();
    exp.sim().run(warm);
    measureStart = exp.sim().now();
    const std::uint64_t bgOfferedBefore = bgInj.offeredFlits();
    exp.sim().run(measureStart + cycles);
    hotInj.stop();
    bgInj.stop();
    const double bgOffered = static_cast<double>(bgInj.offeredFlits() - bgOfferedBefore);

    table.addRow({algorithm, harness::Table::num(bgLat.mean(), 1),
                  harness::Table::num(bgLat.percentile(0.99), 0),
                  harness::Table::pct(bgOffered > 0 ? bgFlits / bgOffered : 0.0),
                  harness::Table::num(hotLat.mean(), 1),
                  harness::Table::num(deroutes.mean(), 3)});
  }
  table.print();
  std::printf("\n(§3.2: source-adaptive routing runs minimal traffic straight into the hot\n"
              "plane; incremental algorithms deroute around it, keeping background latency\n"
              "near its uncongested level without globally load-balancing)\n");
  return 0;
}
