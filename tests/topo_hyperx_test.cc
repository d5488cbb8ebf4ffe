#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "topo/hyperx.h"

namespace hxwar::topo {
namespace {

using Params = HyperX::Params;

TEST(HyperX, PaperConfiguration) {
  HyperX h(Params{{8, 8, 8}, 8});
  EXPECT_EQ(h.numRouters(), 512u);
  EXPECT_EQ(h.numNodes(), 4096u);
  EXPECT_EQ(h.numPorts(0), 8u + 7 + 7 + 7);  // 29 ports
  EXPECT_EQ(h.diameter(), 3u);
}

TEST(HyperX, CoordinateRoundTrip) {
  HyperX h(Params{{3, 4, 5}, 2});
  std::vector<std::uint32_t> c;
  for (RouterId r = 0; r < h.numRouters(); ++r) {
    h.coords(r, c);
    EXPECT_EQ(h.routerAt(c), r);
  }
}

TEST(HyperX, NodeAttachment) {
  HyperX h(Params{{4, 4}, 3});
  for (NodeId n = 0; n < h.numNodes(); ++n) {
    const RouterId r = h.nodeRouter(n);
    const PortId p = h.nodePort(n);
    EXPECT_LT(p, 3u);
    const auto t = h.portTarget(r, p);
    ASSERT_EQ(t.kind, Topology::PortTarget::Kind::kTerminal);
    EXPECT_EQ(t.node, n);
  }
}

TEST(HyperX, MinHopsCountsUnalignedDims) {
  HyperX h(Params{{4, 4, 4}, 1});
  const RouterId a = h.routerAt({0, 0, 0});
  EXPECT_EQ(h.minHops(a, h.routerAt({0, 0, 0})), 0u);
  EXPECT_EQ(h.minHops(a, h.routerAt({3, 0, 0})), 1u);
  EXPECT_EQ(h.minHops(a, h.routerAt({3, 2, 0})), 2u);
  EXPECT_EQ(h.minHops(a, h.routerAt({1, 2, 3})), 3u);
}

TEST(HyperX, UnalignedMask) {
  HyperX h(Params{{4, 4, 4}, 1});
  const RouterId a = h.routerAt({1, 2, 3});
  const RouterId b = h.routerAt({1, 0, 2});
  EXPECT_EQ(h.unalignedMask(a, b), 0b110u);
}

TEST(HyperX, DimPortAndPortMoveAreInverse) {
  HyperX h(Params{{3, 5, 4}, 2});
  for (RouterId r = 0; r < h.numRouters(); ++r) {
    for (std::uint32_t d = 0; d < h.numDims(); ++d) {
      for (std::uint32_t to = 0; to < h.width(d); ++to) {
        if (to == h.coord(r, d)) continue;
        const PortId p = h.dimPort(r, d, to);
        const auto mv = h.portMove(r, p);
        EXPECT_EQ(mv.dim, d);
        EXPECT_EQ(mv.toCoord, to);
      }
    }
  }
}

// Wiring property: following a port and coming back lands on the same port.
class HyperXWiring : public ::testing::TestWithParam<Params> {};

TEST_P(HyperXWiring, PortTargetsAreSymmetric) {
  HyperX h(GetParam());
  for (RouterId r = 0; r < h.numRouters(); ++r) {
    for (PortId p = 0; p < h.numPorts(r); ++p) {
      const auto t = h.portTarget(r, p);
      if (t.kind != Topology::PortTarget::Kind::kRouter) continue;
      const auto back = h.portTarget(t.router, t.port);
      ASSERT_EQ(back.kind, Topology::PortTarget::Kind::kRouter);
      EXPECT_EQ(back.router, r);
      EXPECT_EQ(back.port, p);
    }
  }
}

TEST_P(HyperXWiring, EveryRouterPairHasMinimalPathWithinDiameter) {
  HyperX h(GetParam());
  for (RouterId a = 0; a < h.numRouters(); ++a) {
    for (RouterId b = 0; b < h.numRouters(); ++b) {
      EXPECT_LE(h.minHops(a, b), h.diameter());
    }
  }
}

TEST_P(HyperXWiring, NeighborMovesOneDimension) {
  HyperX h(GetParam());
  for (RouterId r = 0; r < h.numRouters(); ++r) {
    for (PortId p = h.terminalsPerRouter(); p < h.numPorts(r); ++p) {
      const auto t = h.portTarget(r, p);
      ASSERT_EQ(t.kind, Topology::PortTarget::Kind::kRouter);
      EXPECT_EQ(h.minHops(r, t.router), 1u);
      const auto mv = h.portMove(r, p);
      EXPECT_EQ(h.coord(t.router, mv.dim), mv.toCoord);
      for (std::uint32_t d = 0; d < h.numDims(); ++d) {
        if (d != mv.dim) {
          EXPECT_EQ(h.coord(t.router, d), h.coord(r, d));
        }
      }
    }
  }
}

TEST_P(HyperXWiring, TerminalIdsArePartition) {
  HyperX h(GetParam());
  std::set<NodeId> seen;
  for (RouterId r = 0; r < h.numRouters(); ++r) {
    for (PortId p = 0; p < h.terminalsPerRouter(); ++p) {
      const auto t = h.portTarget(r, p);
      ASSERT_EQ(t.kind, Topology::PortTarget::Kind::kTerminal);
      EXPECT_TRUE(seen.insert(t.node).second) << "duplicate node id";
    }
  }
  EXPECT_EQ(seen.size(), h.numNodes());
}

// Case names like 4_4_k2_t2 (widths, terminals, trunking > 1).
std::string shapeName(const ::testing::TestParamInfo<Params>& info) {
  std::string name;
  for (const std::uint32_t w : info.param.widths) name += std::to_string(w) + "_";
  name += "k" + std::to_string(info.param.terminalsPerRouter);
  if (info.param.trunking > 1) name += "_t" + std::to_string(info.param.trunking);
  return name;
}

INSTANTIATE_TEST_SUITE_P(Shapes, HyperXWiring,
                         ::testing::Values(Params{{2}, 1},            // smallest
                                           Params{{4, 4}, 2},         // 2D
                                           Params{{3, 5}, 3},         // uneven widths
                                           Params{{4, 4, 4}, 4},      // bench scale
                                           Params{{2, 2, 2, 2}, 1},   // hypercube
                                           Params{{3, 3, 3}, 2},
                                           Params{{4, 4}, 2, 2},      // trunked T=2
                                           Params{{3, 3}, 1, 3}),     // trunked T=3
                         shapeName);

TEST(HyperXTrunking, PortLayoutAndInverse) {
  HyperX h(Params{{4, 4}, 2, 3});  // T = 3
  EXPECT_EQ(h.trunking(), 3u);
  EXPECT_EQ(h.numPorts(0), 2u + 3 * 3 + 3 * 3);
  for (RouterId r = 0; r < h.numRouters(); ++r) {
    for (std::uint32_t d = 0; d < 2; ++d) {
      for (std::uint32_t to = 0; to < 4; ++to) {
        if (to == h.coord(r, d)) continue;
        for (std::uint32_t trunk = 0; trunk < 3; ++trunk) {
          const PortId p = h.dimPort(r, d, to, trunk);
          const auto mv = h.portMove(r, p);
          EXPECT_EQ(mv.dim, d);
          EXPECT_EQ(mv.toCoord, to);
          EXPECT_EQ(mv.trunk, trunk);
        }
      }
    }
  }
}

TEST(HyperXTrunking, TrunksPairOneToOne) {
  HyperX h(Params{{3, 3}, 1, 2});
  for (RouterId r = 0; r < h.numRouters(); ++r) {
    for (PortId p = 1; p < h.numPorts(r); ++p) {
      const auto t = h.portTarget(r, p);
      ASSERT_EQ(t.kind, Topology::PortTarget::Kind::kRouter);
      const auto back = h.portTarget(t.router, t.port);
      EXPECT_EQ(back.router, r);
      EXPECT_EQ(back.port, p);
      EXPECT_EQ(h.portMove(r, p).trunk, h.portMove(t.router, t.port).trunk);
    }
  }
}

}  // namespace
}  // namespace hxwar::topo
