// Torus substrate + dateline-DOR tests (the §2.1 background scheme).
#include <gtest/gtest.h>

#include <string>

#include "net/network.h"
#include "routing/torus_routing.h"
#include "sim/simulator.h"
#include "topo/torus.h"
#include "traffic/injector.h"
#include "traffic/pattern.h"

namespace hxwar {
namespace {

TEST(Torus, Counts) {
  topo::Torus t({{4, 4}, 2});
  EXPECT_EQ(t.numRouters(), 16u);
  EXPECT_EQ(t.numNodes(), 32u);
  EXPECT_EQ(t.numPorts(0), 2u + 4);
  EXPECT_EQ(t.diameter(), 4u);
}

TEST(Torus, WiringIsSymmetric) {
  for (const auto& params : {topo::Torus::Params{{4, 4}, 2}, topo::Torus::Params{{2, 3}, 1},
                             topo::Torus::Params{{5}, 1}}) {
    topo::Torus t(params);
    for (RouterId r = 0; r < t.numRouters(); ++r) {
      for (PortId p = 0; p < t.numPorts(r); ++p) {
        const auto target = t.portTarget(r, p);
        if (target.kind != topo::Topology::PortTarget::Kind::kRouter) continue;
        const auto back = t.portTarget(target.router, target.port);
        ASSERT_EQ(back.kind, topo::Topology::PortTarget::Kind::kRouter);
        EXPECT_EQ(back.router, r) << t.name() << " r=" << r << " p=" << p;
        EXPECT_EQ(back.port, p);
      }
    }
  }
}

TEST(Torus, ShortestDeltaWrapsCorrectly) {
  topo::Torus t({{5}, 1});
  EXPECT_EQ(t.shortestDelta(0, 0, 1), 1);
  EXPECT_EQ(t.shortestDelta(0, 0, 4), -1);  // wrap backwards is shorter
  EXPECT_EQ(t.shortestDelta(0, 4, 1), 2);   // wrap forwards
  EXPECT_EQ(t.shortestDelta(0, 1, 3), 2);
}

TEST(Torus, MinHopsUsesWrap) {
  topo::Torus t({{8, 8}, 1});
  const RouterId a = t.routerAt({0, 0});
  EXPECT_EQ(t.minHops(a, t.routerAt({7, 0})), 1u);
  EXPECT_EQ(t.minHops(a, t.routerAt({4, 4})), 8u);  // diameter
  EXPECT_EQ(t.minHops(a, t.routerAt({6, 2})), 4u);
}

TEST(TorusDateline, CrossingHopUsesClassOne) {
  sim::Simulator sim;
  topo::Torus topo({{5}, 1});
  auto routing = routing::makeTorusRouting(topo);
  net::Network network(sim, topo, *routing, net::NetworkConfig{});
  net::Packet pkt;
  pkt.dst = 1;  // from router 4 to 1: hops 4 -> 0 (crossing), 0 -> 1
  std::vector<routing::Candidate> out;
  const routing::RouteContext atWrap{network.router(4), 4, 0, 0, true, 0};
  routing->route(atWrap, pkt, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vcClass, 1u) << "wrap hop must take the dateline class";

  out.clear();
  // Continuing after the wrap (arrived on class 1 via the ring port).
  const routing::RouteContext after{network.router(0), 0, topo.dimPort(0, false), 1, false, 1};
  routing->route(after, pkt, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vcClass, 1u) << "stay on class 1 until the dimension ends";
}

TEST(TorusDateline, NewDimensionResetsClass) {
  sim::Simulator sim;
  topo::Torus topo({{4, 4}, 1});
  auto routing = routing::makeTorusRouting(topo);
  net::Network network(sim, topo, *routing, net::NetworkConfig{});
  net::Packet pkt;
  pkt.dst = topo.routerAt({1, 1});  // K=1: node id == router id
  // Arrived at (1, 0) via dim 0 on class 1; next hop is dim 1: class resets.
  const RouterId cur = topo.routerAt({1, 0});
  std::vector<routing::Candidate> out;
  const routing::RouteContext ctx{network.router(cur), cur, topo.dimPort(0, false), 1, false, 1};
  routing->route(ctx, pkt, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vcClass, 0u);
}

class TorusDrain : public ::testing::TestWithParam<topo::Torus::Params> {};

TEST_P(TorusDrain, AdversarialBurstDrains) {
  sim::Simulator sim;
  topo::Torus topo(GetParam());
  auto routing = routing::makeTorusRouting(topo);
  net::NetworkConfig cfg;
  cfg.channelLatencyRouter = 4;
  net::Network network(sim, topo, *routing, cfg);
  traffic::BitComplement pattern(topo.numNodes());
  traffic::SyntheticInjector::Params params;
  params.rate = 0.6;
  traffic::SyntheticInjector injector(sim, network, pattern, params);
  std::uint64_t delivered = 0;
  net::CallbackListener cb106;
  cb106.ejected = [&](const net::Packet& p) {
    delivered += 1;
    EXPECT_EQ(p.hops, topo.minHops(topo.nodeRouter(p.src), topo.nodeRouter(p.dst)));
  };
  network.setListener(&cb106);
  injector.start();
  sim.run(1500);
  injector.stop();
  while (network.packetsOutstanding() > 0) {
    const auto before = network.flitMovements();
    sim.run(sim.now() + 3000);
    ASSERT_NE(network.flitMovements(), before) << "torus dateline deadlocked";
  }
  EXPECT_EQ(delivered, injector.offeredPackets());
}

// Case names like 4_4_k2 (widths, terminals).
std::string shapeName(const ::testing::TestParamInfo<topo::Torus::Params>& info) {
  std::string name;
  for (const std::uint32_t w : info.param.widths) name += std::to_string(w) + "_";
  return name + "k" + std::to_string(info.param.terminalsPerRouter);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TorusDrain,
                         ::testing::Values(topo::Torus::Params{{8}, 2},
                                           topo::Torus::Params{{4, 4}, 2},
                                           topo::Torus::Params{{3, 5}, 1},
                                           topo::Torus::Params{{4, 4, 4}, 1}),
                         shapeName);

}  // namespace
}  // namespace hxwar
