// Credit-wait-cycle deadlock detector (net/deadlock.h, DESIGN.md §13).
//
// Real routing algorithms avoid credit deadlock by construction (dimension
// classes, datelines, escape VCs), so to exercise the detector we contrive
// one: a single-VC ring walked by a deliberately unsafe routing algorithm.
// Heavy single-flit traffic wraps the ring into the classic cyclic buffer
// dependency — every ring channel full, every head granted into the next
// creditless output VC — and the test checks that
//   (a) findCreditWaitCycle names the cycle (routers, ports, queue/credit
//       state) instead of returning empty, and
//   (b) the steady-state stall watchdog turns the wedge into a clean
//       hxwar::Error carrying that diagnostic — a failed point, not a hang.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "harness/experiment.h"
#include "harness/spec.h"
#include "metrics/steady_state.h"
#include "net/deadlock.h"
#include "net/network.h"
#include "routing/routing.h"
#include "sim/simulator.h"
#include "topo/hyperx.h"
#include "traffic/injector.h"
#include "traffic/pattern.h"

namespace hxwar {
namespace {

// Routes every packet clockwise via the +1 ring port with a single VC class
// and no dateline: exactly the scheme every deadlock-avoidance design exists
// to forbid.
class RingRouting final : public routing::RoutingAlgorithm {
 public:
  explicit RingRouting(const topo::HyperX& topo) : topo_(topo) {}

  void route(const routing::RouteContext& ctx, net::Packet& pkt,
             std::vector<routing::Candidate>& out) override {
    const RouterId dstR = topo_.nodeRouter(pkt.dst);
    if (ctx.routerId == dstR) {
      out.push_back(routing::Candidate{topo_.nodePort(pkt.dst), 0, 0, false});
      return;
    }
    const std::uint32_t n = topo_.numRouters();
    const RouterId next = (ctx.routerId + 1) % n;
    const PortId port = topo_.dimPort(ctx.routerId, 0, topo_.coord(next, 0));
    const std::uint32_t hops = (dstR + n - ctx.routerId) % n;
    out.push_back(routing::Candidate{port, 0, hops, false});
  }

  std::uint32_t numClasses() const override { return 1; }

  routing::AlgorithmInfo info() const override {
    return {"ring", false, routing::AlgorithmInfo::Style::kOblivious,
            "1",    "none", "none",
            "none"};
  }

 private:
  const topo::HyperX& topo_;
};

// Ring sends (src+3)%4: three hops, so most buffered heads are mid-path
// (granted onward) rather than ejecting. Tiny buffers make the wedge fast.
net::NetworkConfig ringConfig() {
  net::NetworkConfig cfg;
  cfg.router.numVcs = 1;
  cfg.router.inputBufferDepth = 2;
  cfg.router.outputQueueDepth = 1;
  cfg.router.crossbarLatency = 1;
  cfg.channelLatencyRouter = 1;
  cfg.channelLatencyTerminal = 1;
  return cfg;
}

class RingShift final : public traffic::TrafficPattern {
 public:
  explicit RingShift(std::uint32_t numNodes) : numNodes_(numNodes) {}
  std::string name() const override { return "ring-shift"; }
  NodeId dest(NodeId src, Rng&) override { return (src + 3) % numNodes_; }

 private:
  std::uint32_t numNodes_;
};

TEST(DeadlockDetector, WatchdogNamesCreditCycleAndFailsCleanly) {
  sim::Simulator sim;
  topo::HyperX topo({{4}, 1});
  RingRouting routing(topo);
  net::Network network(sim, topo, routing, ringConfig());

  RingShift pattern(network.numNodes());
  traffic::SyntheticInjector::Params ip;
  ip.rate = 0.9;
  ip.minFlits = 1;
  ip.maxFlits = 1;
  ip.seed = 11;
  traffic::SyntheticInjector injector(sim, network, pattern, ip);

  metrics::SteadyStateConfig cfg;
  cfg.warmupWindow = 500;
  cfg.maxWarmupWindows = 60;
  cfg.measureWindow = 1000;
  cfg.drainWindow = 4000;
  cfg.minMeasurePackets = 1;

  // The watchdog bounds the run: a wedged window raises Error instead of
  // spinning until the test harness kills us.
  try {
    metrics::runSteadyState(sim, network, injector, cfg);
    FAIL() << "ring traffic on one unordered VC must credit-deadlock";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("credit-wait cycle ("), std::string::npos) << msg;
    EXPECT_NE(msg.find("0 credits"), std::string::npos) << msg;
  }

  // The detector itself reads the frozen SoA state: the cycle is still there
  // and names concrete router:port:vc links.
  const std::string cycle = net::findCreditWaitCycle(network);
  ASSERT_FALSE(cycle.empty());
  EXPECT_NE(cycle.find("router "), std::string::npos);
  EXPECT_NE(cycle.find("flits queued"), std::string::npos);
  EXPECT_NE(cycle.find("closing back to"), std::string::npos);
}

// Atomic queue allocation (DAL, paper §4.2) wedges differently: it grants an
// output only when the downstream buffer is completely empty, so under
// saturation every head can be denied while every credit counter stays
// positive — no creditless link exists for the first walk to find. The
// detector's second walk follows the recorded denied-output wants instead
// and must name the allocation cycle. This is a real reproduction, not a
// contrivance: escape-less DAL deadlocks exactly like this on a faulted
// 4x4x4 at high load (the fault_resilience bench crash-isolates it).
TEST(DeadlockDetector, NamesAllocationWaitCycleUnderAtomicDal) {
  harness::ExperimentSpec spec = harness::scaleSpec("small");
  spec.routing = "dal";
  spec.pattern = "ur";
  spec.injection.rate = 0.9;
  spec.fault.rate = 0.02;
  spec.fault.seed = 7;  // connected and one-deroute-routable draw
  spec.fault.policy = fault::FaultPolicy::kDrop;
  spec.steady.maxWarmupWindows = 8;
  spec.steady.measureWindow = 3000;
  spec.steady.drainWindow = 0;

  const harness::SweepPoint point = harness::runSweepPoint(spec, 0.9, 0);
  ASSERT_TRUE(point.failed()) << "saturated atomic DAL on a faulted 4x4x4 "
                                 "is expected to wedge";
  EXPECT_NE(point.message.find("network stalled"), std::string::npos) << point.message;
  EXPECT_NE(point.message.find("allocation-wait cycle ("), std::string::npos)
      << point.message;
  EXPECT_NE(point.message.find("head denied output port"), std::string::npos)
      << point.message;
  EXPECT_NE(point.message.find("closing back to"), std::string::npos) << point.message;
}

TEST(DeadlockDetector, QuietNetworkHasNoCycle) {
  sim::Simulator sim;
  topo::HyperX topo({{4}, 1});
  RingRouting routing(topo);
  net::Network network(sim, topo, routing, ringConfig());
  // Idle network: nothing queued, nothing blocked.
  EXPECT_EQ(net::findCreditWaitCycle(network), "");
  // A lone packet in flight is load, not deadlock.
  network.injectPacket(0, 1, 1);
  while (sim.step(200)) {
  }
  EXPECT_EQ(net::findCreditWaitCycle(network), "");
}

}  // namespace
}  // namespace hxwar
