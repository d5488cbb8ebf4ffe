// Cross-module property tests: every routing algorithm, on every traffic
// pattern, must deliver all packets (no loss, no duplication, no deadlock)
// and respect its structural bounds (hop counts, deroute budgets).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "routing/hyperx_routing.h"
#include "sim/simulator.h"
#include "topo/hyperx.h"
#include "traffic/injector.h"
#include "traffic/pattern.h"

namespace hxwar {
namespace {

// The ctest name of each case ends in gtest's byte printout of its Scenario.
// The names are held inline, zero-padded, so that printout holds no heap
// pointer and the ctest name is the same on every build.
struct Scenario {
  char algorithm[32];
  char pattern[32];
};

Scenario makeScenario(std::string_view algorithm, std::string_view pattern) {
  Scenario s{};
  algorithm.copy(s.algorithm, sizeof(s.algorithm) - 1);
  pattern.copy(s.pattern, sizeof(s.pattern) - 1);
  return s;
}

std::string scenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  return std::string(info.param.algorithm) + "_" + info.param.pattern;
}

class DrainProperty : public ::testing::TestWithParam<Scenario> {};

TEST_P(DrainProperty, BurstDrainsCompletelyWithBoundedPaths) {
  const std::string algorithm = GetParam().algorithm;
  const std::string patternName = GetParam().pattern;

  sim::Simulator sim;
  topo::HyperX topo({{4, 4, 4}, 2});
  auto routing = routing::makeHyperXRouting(algorithm, topo);
  net::NetworkConfig cfg;
  cfg.channelLatencyRouter = 4;
  cfg.router.inputBufferDepth = 24;
  net::Network network(sim, topo, *routing, cfg);
  auto pattern = traffic::makePattern(patternName, topo);

  // Structural bounds per algorithm (router-to-router hops).
  const std::uint32_t dims = topo.numDims();
  std::uint32_t maxHops = 2 * dims;  // DOR N, VAL/UGAL/ClosAD/DimWAR <= 2N
  std::uint32_t maxDeroutes = dims;
  if (algorithm == "dor") {
    maxHops = dims;
    maxDeroutes = 0;
  } else if (algorithm == "omniwar") {
    maxHops = routing->numClasses();  // N + M distance classes
    maxDeroutes = routing->numClasses() - dims;
  } else if (algorithm == "minad") {
    maxHops = dims;
    maxDeroutes = 0;
  } else if (algorithm == "val" || algorithm == "ugal" || algorithm == "closad") {
    maxDeroutes = 0;  // these take no "deroute"-flagged hops
  }

  const bool omni = algorithm == "omniwar";
  std::uint64_t delivered = 0;
  net::CallbackListener cb62;
  cb62.ejected = [&](const net::Packet& p) {
    delivered += 1;
    EXPECT_LE(p.hops, maxHops) << algorithm << " exceeded its hop bound";
    const auto minimal = topo.minHops(topo.nodeRouter(p.src), topo.nodeRouter(p.dst));
    if (omni) {
      // OmniWAR's budget is per remaining distance classes (§5.2 step 2): a
      // packet may deroute up to (N + M) - minimal times.
      EXPECT_LE(p.deroutes, maxHops - minimal);
    } else {
      EXPECT_LE(p.deroutes, maxDeroutes);
    }
    EXPECT_GE(p.hops, minimal);
  };
  network.setListener(&cb62);

  // High-rate burst to force contention, then full drain.
  traffic::SyntheticInjector::Params params;
  params.rate = 0.8;
  params.seed = 0xfeed + std::hash<std::string>{}(algorithm + patternName);
  traffic::SyntheticInjector injector(sim, network, *pattern, params);
  injector.start();
  sim.run(sim.now() + 3000);
  injector.stop();

  // Drain with a watchdog: progress must continue until empty.
  while (network.packetsOutstanding() > 0) {
    const auto movesBefore = network.flitMovements();
    sim.run(sim.now() + 2000);
    ASSERT_NE(network.flitMovements(), movesBefore)
        << "stalled with " << network.packetsOutstanding() << " packets outstanding — deadlock";
  }

  EXPECT_EQ(delivered, injector.offeredPackets());
  EXPECT_EQ(network.flitsInjected(), network.flitsEjected());
  EXPECT_EQ(network.flitsInjected(), injector.offeredFlits());
}

std::vector<Scenario> allScenarios() {
  std::vector<Scenario> v;
  for (const char* a : {"dor", "val", "minad", "ugal", "closad", "dimwar", "omniwar"}) {
    for (const char* p : {"ur", "bc", "urby", "s2", "dcr", "tp"}) {
      v.push_back(makeScenario(a, p));
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, DrainProperty, ::testing::ValuesIn(allScenarios()),
                         scenarioName);

// Determinism: identical seeds must produce identical simulations.
TEST(Determinism, SameSeedSameResult) {
  auto runOnce = [](std::uint64_t seed) {
    sim::Simulator sim;
    topo::HyperX topo({{3, 3}, 2});
    auto routing = routing::makeHyperXRouting("omniwar", topo);
    net::NetworkConfig cfg;
    cfg.rngSeed = seed;
    net::Network network(sim, topo, *routing, cfg);
    traffic::UniformRandom pattern(topo.numNodes());
    traffic::SyntheticInjector::Params params;
    params.rate = 0.5;
    params.seed = seed;
    traffic::SyntheticInjector injector(sim, network, pattern, params);
    std::uint64_t latencySum = 0;
    net::CallbackListener cb126;
    cb126.ejected = [&](const net::Packet& p) { latencySum += p.ejectedAt - p.createdAt; };
    network.setListener(&cb126);
    injector.start();
    sim.run(4000);
    injector.stop();
    sim.run();
    return std::make_tuple(latencySum, network.flitsEjected(), sim.eventsProcessed());
  };
  EXPECT_EQ(runOnce(123), runOnce(123));
  EXPECT_NE(std::get<0>(runOnce(123)), std::get<0>(runOnce(456)));
}

// DimWAR's deadlock-avoidance argument requires that a deroute is never
// followed by another deroute before a minimal hop; the deroute counter can
// therefore be at most the number of dimensions.
TEST(DimWarInvariant, AtMostOneDeroutePerDimension) {
  sim::Simulator sim;
  topo::HyperX topo({{4, 4, 4}, 2});
  auto routing = routing::makeHyperXRouting("dimwar", topo);
  net::Network network(sim, topo, *routing, net::NetworkConfig{});
  auto pattern = traffic::makePattern("bc", topo);  // forces heavy derouting
  traffic::SyntheticInjector::Params params;
  params.rate = 0.6;
  traffic::SyntheticInjector injector(sim, network, *pattern, params);
  std::uint64_t maxDeroutes = 0;
  net::CallbackListener cb151;
  cb151.ejected = [&](const net::Packet& p) {
    maxDeroutes = std::max<std::uint64_t>(maxDeroutes, p.deroutes);
    EXPECT_LE(p.deroutes, 3u);
    EXPECT_LE(p.hops, 6u);
  };
  network.setListener(&cb151);
  injector.start();
  sim.run(3000);
  injector.stop();
  sim.run();
  EXPECT_GT(maxDeroutes, 0u) << "bit complement should force deroutes";
}

// OmniWAR must respect its total deroute budget M even under stress.
TEST(OmniWarInvariant, DerouteBudgetHolds) {
  sim::Simulator sim;
  topo::HyperX topo({{4, 4, 4}, 2});
  routing::HyperXRoutingOptions opts;
  opts.omniDeroutes = 2;  // M = 2 < N
  auto routing = routing::makeHyperXRouting("omniwar", topo, opts);
  EXPECT_EQ(routing->numClasses(), 5u);
  net::Network network(sim, topo, *routing, net::NetworkConfig{});
  auto pattern = traffic::makePattern("bc", topo);
  traffic::SyntheticInjector::Params params;
  params.rate = 0.6;
  traffic::SyntheticInjector injector(sim, network, *pattern, params);
  net::CallbackListener cb176;
  cb176.ejected = [&](const net::Packet& p) {
    // Deroute budget per §5.2 step 2: remaining classes minus remaining
    // minimal hops; over a whole path that is (N + M) - minimal.
    const auto minimal = topo.minHops(topo.nodeRouter(p.src), topo.nodeRouter(p.dst));
    EXPECT_LE(p.deroutes, 5u - minimal);
    EXPECT_LE(p.hops, 5u);  // N + M distance classes bound the path length
  };
  network.setListener(&cb176);
  injector.start();
  sim.run(3000);
  injector.stop();
  sim.run();
}

}  // namespace
}  // namespace hxwar
