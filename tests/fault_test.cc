// Fault-injection subsystem: deterministic fault sets, degraded-topology
// structure (BFS-validated distances, partition rejection), fault-aware
// routing behavior (adaptives deliver everything on one-deroute-routable
// degraded networks, DOR fails loudly or drops), transient kill/revive, and
// the harness contract (spec round-trip, --jobs identity on faulted sweeps).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "fault/degraded_topology.h"
#include "fault/fault_model.h"
#include "harness/experiment.h"
#include "harness/registry.h"
#include "harness/spec.h"
#include "harness/sweep_runner.h"
#include "routing/fault_escape.h"
#include "topo/hyperx.h"

namespace hxwar {
namespace {

fault::DeadPortMask maskFor(const topo::Topology& topo, const fault::FaultSet& set) {
  std::uint32_t maxPorts = 0;
  for (RouterId r = 0; r < topo.numRouters(); ++r) {
    maxPorts = std::max(maxPorts, topo.numPorts(r));
  }
  fault::DeadPortMask mask(topo.numRouters(), maxPorts);
  mask.apply(set.ports);
  return mask;
}

// First seed >= `from` whose random fault set keeps the network connected
// AND one-deroute-routable (the condition under which the fault-aware
// adaptives guarantee delivery).
std::uint64_t routableSeed(const topo::HyperX& topo, double rate, std::uint64_t from) {
  for (std::uint64_t seed = from; seed < from + 1000; ++seed) {
    fault::FaultSpec spec;
    spec.rate = rate;
    spec.seed = seed;
    const auto set = fault::buildFaultSet(topo, spec);
    if (set.failedLinks == 0) continue;
    const auto mask = maskFor(topo, set);
    if (!fault::checkConnectivity(topo, mask).connected) continue;
    if (!fault::hyperxOneDerouteRoutable(topo, mask)) continue;
    return seed;
  }
  ADD_FAILURE() << "no routable fault seed found near " << from;
  return from;
}

// First seed >= `from` whose fault set keeps the network connected but NOT
// one-deroute-routable: the regime where the classic adaptives' delivery
// guarantee lapses and only the escape-VC escalation (ftar, vc-policy=escape)
// still guarantees delivery.
std::uint64_t escapeOnlySeed(const topo::HyperX& topo, double rate, std::uint64_t from) {
  for (std::uint64_t seed = from; seed < from + 4000; ++seed) {
    fault::FaultSpec spec;
    spec.rate = rate;
    spec.seed = seed;
    const auto set = fault::buildFaultSet(topo, spec);
    if (set.failedLinks == 0) continue;
    const auto mask = maskFor(topo, set);
    if (!fault::checkConnectivity(topo, mask).connected) continue;
    if (fault::hyperxOneDerouteRoutable(topo, mask)) continue;
    return seed;
  }
  ADD_FAILURE() << "no connected-but-not-one-deroute-routable seed near " << from;
  return from;
}

// --- fault-set construction ----------------------------------------------

TEST(FaultModel, SeededDrawIsDeterministicAndSymmetric) {
  topo::HyperX topo({{4, 4, 4}, 4});
  fault::FaultSpec spec;
  spec.rate = 0.08;
  spec.seed = 17;
  const auto a = fault::buildFaultSet(topo, spec);
  const auto b = fault::buildFaultSet(topo, spec);
  EXPECT_EQ(a.ports, b.ports);
  EXPECT_GT(a.failedLinks, 0u);
  EXPECT_EQ(a.ports.size(), 2 * a.failedLinks);  // both directions present

  // Symmetry: each directed entry's peer entry is also in the set.
  const auto mask = maskFor(topo, a);
  for (const auto& [r, p] : a.ports) {
    const auto target = topo.portTarget(r, p);
    ASSERT_EQ(target.kind, topo::Topology::PortTarget::Kind::kRouter);
    EXPECT_TRUE(mask.isDead(target.router, target.port));
  }

  // A different seed draws a different set (with near certainty at 8%).
  spec.seed = 18;
  EXPECT_NE(fault::buildFaultSet(topo, spec).ports, a.ports);
}

TEST(FaultModel, RateScalesTheDraw) {
  topo::HyperX topo({{4, 4, 4}, 4});
  fault::FaultSpec lo;
  lo.rate = 0.02;
  lo.seed = 5;
  fault::FaultSpec hi = lo;
  hi.rate = 0.20;
  EXPECT_LT(fault::buildFaultSet(topo, lo).failedLinks,
            fault::buildFaultSet(topo, hi).failedLinks);
}

TEST(FaultModel, ExplicitLinksAndRouters) {
  topo::HyperX topo({{4, 4}, 2});
  const PortId p01 = topo.dimPort(0, 0, 1);
  fault::FaultSpec spec;
  spec.links = "0:" + std::to_string(p01);
  const auto set = fault::buildFaultSet(topo, spec);
  EXPECT_EQ(set.failedLinks, 1u);
  const auto mask = maskFor(topo, set);
  EXPECT_TRUE(mask.isDead(0, p01));
  EXPECT_TRUE(mask.isDead(1, topo.dimPort(1, 0, 0)));

  fault::FaultSpec routers;
  routers.routers = "5";
  const auto rset = fault::buildFaultSet(topo, routers);
  EXPECT_EQ(rset.failedRouters, std::vector<RouterId>{5});
  const auto rmask = maskFor(topo, rset);
  for (PortId p = topo.terminalsPerRouter(); p < topo.numPorts(5); ++p) {
    EXPECT_TRUE(rmask.isDead(5, p)) << "port " << p;
  }
}

TEST(FaultModelDeath, TerminalPortInLinkListRejected) {
  topo::HyperX topo({{4, 4}, 2});
  fault::FaultSpec spec;
  spec.links = "0:0";  // port 0 is a terminal port
  EXPECT_DEATH(fault::buildFaultSet(topo, spec), "inter-router");
}

// --- BFS cross-check: minHops/diameter for every topology family ---------

struct FamilyCase {
  const char* name;
  // Geodesic families report true graph distance from minHops(); dragonfly's
  // minHops is the canonical minimal-routing path (at most one global link),
  // which BFS can undercut via two-global shortcuts that minimal routing
  // never takes — there BFS is a lower bound, not an equality.
  bool geodesic = true;
  const char* paramKey1 = nullptr;
  const char* paramVal1 = nullptr;
  const char* paramKey2 = nullptr;
  const char* paramVal2 = nullptr;
  const char* paramKey3 = nullptr;
  const char* paramVal3 = nullptr;
};

TEST(FaultModel, BfsMatchesMinHopsForEveryFamily) {
  const std::vector<FamilyCase> cases = {
      {"hyperx", true, "widths", "4,4", "terminals", "2"},
      {"dragonfly", false, "df-p", "2", "df-a", "4", "df-h", "2"},
      {"fattree", true},
      {"slimfly", true, "sf-q", "5"},
      {"torus", true, "widths", "4,4", "terminals", "2"},
  };
  auto& registry = harness::ExperimentRegistry::instance();
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Flags params;
    if (c.paramKey1) params.set(c.paramKey1, c.paramVal1);
    if (c.paramKey2) params.set(c.paramKey2, c.paramVal2);
    if (c.paramKey3) params.set(c.paramKey3, c.paramVal3);
    const auto topo = registry.topology(c.name).build(params);

    // Cross-check the pairs routing actually queries: terminal-attached
    // routers (every packet travels nodeRouter(src) -> nodeRouter(dst)). For
    // hyperx/torus/slimfly/dragonfly that is every router; for the fat tree
    // it is the leaves — minHops between *internal* switches approximates
    // same-level copy hops and is never used by routing or metrics.
    std::vector<RouterId> endpoints;
    {
      std::vector<bool> seen(topo->numRouters(), false);
      for (NodeId n = 0; n < topo->numNodes(); ++n) seen[topo->nodeRouter(n)] = true;
      for (RouterId r = 0; r < topo->numRouters(); ++r) {
        if (seen[r]) endpoints.push_back(r);
      }
    }

    std::uint32_t maxDist = 0;
    std::vector<std::uint32_t> dist;
    for (const RouterId src : endpoints) {
      fault::bfsDistances(*topo, src, nullptr, dist);
      for (const RouterId dst : endpoints) {
        ASSERT_NE(dist[dst], fault::kUnreachable);
        if (c.geodesic) {
          ASSERT_EQ(dist[dst], topo->minHops(src, dst))
              << "src " << src << " dst " << dst;
        } else {
          ASSERT_LE(dist[dst], topo->minHops(src, dst))
              << "src " << src << " dst " << dst;
          ASSERT_LE(topo->minHops(src, dst), topo->diameter());
        }
        maxDist = std::max(maxDist, dist[dst]);
      }
    }
    EXPECT_LE(maxDist, topo->diameter());
    if (c.geodesic && c.name != std::string("fattree")) {
      // Terminal routers realize the diameter in the all-routers-terminal
      // families (leaf-to-leaf paths bound everything in a fat tree too, but
      // through its own diameter definition).
      EXPECT_EQ(maxDist, topo->diameter());
    }
  }
}

// --- DegradedTopology ------------------------------------------------------

TEST(DegradedTopology, MasksPortsAndRecomputesDistances) {
  // 1-D width-4 HyperX is a K4 clique; killing 0<->1 makes their distance 2.
  topo::HyperX base({{4}, 1});
  fault::FaultSpec spec;
  spec.links = "0:" + std::to_string(base.dimPort(0, 0, 1));
  const auto mask = maskFor(base, fault::buildFaultSet(base, spec));
  fault::DegradedTopology degraded(base, mask);

  EXPECT_EQ(degraded.portTarget(0, base.dimPort(0, 0, 1)).kind,
            topo::Topology::PortTarget::Kind::kUnused);
  EXPECT_EQ(degraded.portTarget(1, base.dimPort(1, 0, 0)).kind,
            topo::Topology::PortTarget::Kind::kUnused);
  // Surviving links are untouched.
  EXPECT_EQ(degraded.portTarget(0, base.dimPort(0, 0, 2)).kind,
            topo::Topology::PortTarget::Kind::kRouter);

  EXPECT_EQ(base.minHops(0, 1), 1u);
  EXPECT_EQ(degraded.minHops(0, 1), 2u);
  EXPECT_EQ(degraded.minHops(0, 2), 1u);
  EXPECT_EQ(degraded.diameter(), 2u);
  EXPECT_EQ(degraded.name(), base.name() + "+faults");
}

TEST(DegradedTopologyDeath, PartitionRejectedWithActionableMessage) {
  // 1-D width-2: a single inter-router link; killing it partitions.
  topo::HyperX base({{2}, 1});
  fault::FaultSpec spec;
  spec.links = "0:" + std::to_string(base.dimPort(0, 0, 1));
  const auto mask = maskFor(base, fault::buildFaultSet(base, spec));
  EXPECT_DEATH(fault::DegradedTopology(base, mask), "partitions the network");
}

TEST(DegradedTopology, ConnectivityReportNamesUnreachablePair) {
  topo::HyperX base({{2}, 1});
  fault::FaultSpec spec;
  spec.links = "0:" + std::to_string(base.dimPort(0, 0, 1));
  const auto mask = maskFor(base, fault::buildFaultSet(base, spec));
  const auto report = fault::checkConnectivity(base, mask);
  EXPECT_FALSE(report.connected);
  EXPECT_EQ(report.from, 0u);
  EXPECT_EQ(report.to, 1u);
  EXPECT_NE(report.message.find("cannot reach"), std::string::npos);
  EXPECT_NE(report.message.find("--fault-"), std::string::npos);
}

TEST(FaultModel, OneDerouteRoutability) {
  topo::HyperX topo({{4}, 1});
  // Kill 0<->1: 0 and 1 still connect via any intermediate. Routable.
  fault::FaultSpec one;
  one.links = "0:" + std::to_string(topo.dimPort(0, 0, 1));
  EXPECT_TRUE(fault::hyperxOneDerouteRoutable(
      topo, maskFor(topo, fault::buildFaultSet(topo, one))));

  // Additionally kill 0<->2 and 0<->3 via intermediate legs from 0: now 0 can
  // only reach 1.. wait, kill 0-1, 0-2: 0->1 via 3 works. Kill 0-1, 0-2, and
  // 2-3: pair (0,1) ok via 3; pair (0,2): direct dead, via 1 ok (0-1 dead!)
  // via 3 needs 3->2 (dead). Not routable.
  fault::FaultSpec three;
  three.links = "0:" + std::to_string(topo.dimPort(0, 0, 1)) + ",0:" +
                std::to_string(topo.dimPort(0, 0, 2)) + ",2:" +
                std::to_string(topo.dimPort(2, 0, 3));
  const auto mask = maskFor(topo, fault::buildFaultSet(topo, three));
  ASSERT_TRUE(fault::checkConnectivity(topo, mask).connected);
  std::string why;
  EXPECT_FALSE(fault::hyperxOneDerouteRoutable(topo, mask, &why));
  EXPECT_FALSE(why.empty());
}

// --- fault-aware routing end to end ---------------------------------------

harness::ExperimentSpec degradedSpec(const std::string& routing, double rate,
                                     std::uint64_t seed) {
  harness::ExperimentSpec spec;
  spec.topology = "hyperx";
  spec.routing = routing;
  spec.pattern = "ur";
  spec.params["widths"] = "4,4";
  spec.params["terminals"] = "2";
  spec.net.channelLatencyRouter = 4;
  spec.net.router.crossbarLatency = 2;
  // Well below any algorithm's degraded saturation point: the assertions here
  // are about loss and stretch, not throughput (the bench covers that).
  spec.injection.rate = 0.15;
  spec.steady.warmupWindow = 500;
  spec.steady.maxWarmupWindows = 14;
  spec.steady.measureWindow = 1500;
  spec.steady.drainWindow = 8000;
  spec.fault.rate = rate;
  spec.fault.seed = seed;
  return spec;
}

TEST(FaultRouting, AdaptivesDropNothingOnRoutableDegradedNetwork) {
  topo::HyperX probe({{4, 4}, 2});
  const std::uint64_t seed = routableSeed(probe, 0.08, 100);
  for (const std::string routing : {"dal", "dimwar", "omniwar"}) {
    SCOPED_TRACE(routing);
    harness::Experiment exp(degradedSpec(routing, 0.08, seed));
    EXPECT_GT(exp.faultSet().failedLinks, 0u);
    const auto r = exp.run();
    EXPECT_FALSE(r.saturated);
    EXPECT_GT(r.packetsMeasured, 0u);
    EXPECT_EQ(exp.network().packetsDropped(), 0u);
    EXPECT_EQ(r.packetsDropped, 0u);
    EXPECT_EQ(r.droppedShare, 0.0);
    // Delivered packets walked real paths; stretch compares against the
    // degraded network's own BFS distances, so it is >= 1 by construction.
    EXPECT_GE(r.avgStretch, 1.0);
  }
}

TEST(FaultRouting, DorDropsAtDeadEndsWhenAsked) {
  topo::HyperX probe({{4, 4}, 2});
  const std::uint64_t seed = routableSeed(probe, 0.08, 100);
  auto spec = degradedSpec("dor", 0.08, seed);
  spec.fault.policy = fault::FaultPolicy::kDrop;
  harness::Experiment exp(spec);
  const auto r = exp.run();
  EXPECT_GT(exp.network().packetsDropped(), 0u);
  EXPECT_GT(r.droppedShare, 0.0);
  // Every marked packet is accounted for: delivered or dropped.
  EXPECT_GT(r.packetsMeasured, 0u);
}

TEST(FaultRouting, DorRaisesErrorByDefault) {
  // The abort policy is now a recoverable hxwar::Error (deferred-fatal slot,
  // raised by the between-window watchdog), not a process abort: one bad
  // sweep point must not take down a --jobs=N sweep.
  topo::HyperX probe({{4, 4}, 2});
  const std::uint64_t seed = routableSeed(probe, 0.08, 100);
  harness::Experiment exp(degradedSpec("dor", 0.08, seed));
  try {
    exp.run();
    FAIL() << "abort policy must raise hxwar::Error at the first dead end";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fault dead end"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--fault-policy"), std::string::npos) << msg;
  }
}

TEST(FaultSweep, AbortingPointBecomesStructuredFailedRow) {
  // Crash isolation: the same dead-ending configuration run through
  // runSweepPoint retries once, then reports status="failed" with the error
  // text instead of propagating — the rest of a sweep keeps its points.
  topo::HyperX probe({{4, 4}, 2});
  const std::uint64_t seed = routableSeed(probe, 0.08, 100);
  const auto spec = degradedSpec("dor", 0.08, seed);
  const auto point = harness::runSweepPoint(spec, spec.injection.rate, 0);
  EXPECT_TRUE(point.failed());
  EXPECT_EQ(point.status, "failed");
  EXPECT_NE(point.message.find("fault dead end"), std::string::npos) << point.message;
}

TEST(FaultRouting, FtarDeliversWhereOneDerouteDoesNotSuffice) {
  // The headline ftar guarantee: on any *connected* degraded network — even
  // one the once-per-dim deroute budget cannot route — the escape-VC
  // escalation delivers every packet.
  topo::HyperX probe({{4, 4}, 2});
  const std::uint64_t seed = escapeOnlySeed(probe, 0.20, 500);
  auto spec = degradedSpec("ftar", 0.20, seed);
  spec.fault.policy = fault::FaultPolicy::kEscape;
  spec.injection.rate = 0.05;  // heavily degraded: stay well under saturation
  harness::Experiment exp(spec);
  EXPECT_TRUE(exp.connectivity().connected);
  const auto r = exp.run();
  EXPECT_GT(r.packetsMeasured, 0u);
  EXPECT_EQ(exp.network().packetsDropped(), 0u);
  EXPECT_EQ(r.packetsDropped, 0u);
  EXPECT_GE(r.avgStretch, 1.0);
}

TEST(FaultRouting, EscapeVcPolicyRescuesDimWarBeyondItsBudget) {
  // Same regime, but via the pluggable VC-policy axis: stock DimWAR carries
  // the escape class as a retrofit (vc-policy=escape) and must also deliver.
  topo::HyperX probe({{4, 4}, 2});
  const std::uint64_t seed = escapeOnlySeed(probe, 0.20, 500);
  auto spec = degradedSpec("dimwar", 0.20, seed);
  spec.params["vc-policy"] = "escape";
  spec.fault.policy = fault::FaultPolicy::kEscape;
  spec.injection.rate = 0.05;
  harness::Experiment exp(spec);
  const auto r = exp.run();
  EXPECT_GT(r.packetsMeasured, 0u);
  EXPECT_EQ(exp.network().packetsDropped(), 0u);
}

TEST(FaultRouting, DatelineVcPolicyDeliversOnRoutableDegradedNetwork) {
  topo::HyperX probe({{4, 4}, 2});
  const std::uint64_t seed = routableSeed(probe, 0.08, 100);
  auto spec = degradedSpec("dimwar", 0.08, seed);
  spec.params["vc-policy"] = "dateline";
  harness::Experiment exp(spec);
  const auto r = exp.run();
  EXPECT_GT(r.packetsMeasured, 0u);
  EXPECT_EQ(exp.network().packetsDropped(), 0u);
}

TEST(FaultRouting, RetryPolicyRecoversAcrossTransientFault) {
  // Bounded in-place retry: packets that dead-end while the fault window is
  // live wait out their backoff and re-route against the revived mask, so a
  // transient fault costs latency, not loss — even for oblivious DOR.
  topo::HyperX probe({{4, 4}, 2});
  const std::uint64_t seed = routableSeed(probe, 0.06, 300);
  auto spec = degradedSpec("dor", 0.06, seed);
  spec.fault.policy = fault::FaultPolicy::kRetry;
  spec.fault.at = 1000;
  spec.fault.until = 3000;
  harness::Experiment exp(spec);
  const auto r = exp.run();
  EXPECT_GT(r.packetsMeasured, 0u);
  // Drain the remaining retried packets past the revival.
  exp.sim().run();
  EXPECT_EQ(exp.network().packetsDropped(), 0u);
}

TEST(FaultRouting, EscapePolicyAcceptsPartitionAndAttributesDrops) {
  // Partition tolerance: cutting router 0 off no longer rejects the spec
  // under a softer policy — the census surfaces as metrics and traffic to
  // the lost routers becomes attributed drops, not a crash.
  topo::HyperX probe({{4, 4}, 2});
  auto spec = degradedSpec("ftar", 0.0, 1);
  std::string links;
  for (PortId p = probe.terminalsPerRouter(); p < probe.numPorts(0); ++p) {
    if (!links.empty()) links += ",";
    links += "0:" + std::to_string(p);
  }
  spec.fault.links = links;
  spec.fault.policy = fault::FaultPolicy::kEscape;
  harness::Experiment exp(spec);
  EXPECT_FALSE(exp.connectivity().connected);
  // Components {router 0} and {the other 15}: 2 * 15 ordered pairs.
  EXPECT_EQ(exp.connectivity().unreachablePairs, 30u);
  EXPECT_EQ(exp.connectivity().unreachableRouters, 15u);
  const auto r = exp.run();
  EXPECT_EQ(r.unreachablePairs, 30u);
  EXPECT_EQ(r.unreachableRouters, 15u);
  EXPECT_GT(r.packetsMeasured, 0u);
  EXPECT_GT(exp.network().packetsDropped(), 0u);  // traffic across the cut
}

TEST(FaultRouting, TransientMidFlightKillReviveMatchesAcrossPointJobs) {
  // Satellite of the §13 contract: kill links while packets are mid-flight
  // on them, revive later, and require bit-identical results between the
  // serial engine and --point-jobs=4 — with nothing lost.
  topo::HyperX probe({{4, 4}, 2});
  const std::uint64_t seed = routableSeed(probe, 0.06, 300);
  auto spec = degradedSpec("omniwar", 0.06, seed);
  spec.fault.at = 800;  // strike mid-warmup: flits are queued on dying links
  spec.fault.until = 2600;
  spec.fault.policy = fault::FaultPolicy::kEscape;
  const auto serial = harness::runSweepPoint(spec, spec.injection.rate, 0);
  auto shardedSpec = spec;
  shardedSpec.pointJobs = 4;
  const auto sharded = harness::runSweepPoint(shardedSpec, spec.injection.rate, 0);
  EXPECT_EQ(serial.status, "ok");
  EXPECT_EQ(sharded.status, "ok");
  EXPECT_EQ(serial.result.packetsMeasured, sharded.result.packetsMeasured);
  EXPECT_EQ(serial.result.packetsDropped, sharded.result.packetsDropped);
  EXPECT_EQ(serial.result.latencyMean, sharded.result.latencyMean);
  EXPECT_EQ(serial.result.accepted, sharded.result.accepted);
  EXPECT_EQ(serial.result.avgStretch, sharded.result.avgStretch);
  EXPECT_GT(serial.result.packetsMeasured, 0u);
  EXPECT_EQ(serial.result.packetsDropped, 0u);
}

TEST(FaultRouting, TransientKillAndReviveDeliversEverything) {
  topo::HyperX probe({{4, 4}, 2});
  const std::uint64_t seed = routableSeed(probe, 0.06, 300);
  auto spec = degradedSpec("omniwar", 0.06, seed);
  spec.fault.at = 1000;
  spec.fault.until = 4000;
  harness::Experiment exp(spec);
  // Transient: the network is wired fully; the mask starts all-alive.
  ASSERT_NE(exp.deadPortMask(), nullptr);
  EXPECT_EQ(exp.deadPortMask()->deadCount(), 0u);
  const auto r = exp.run();
  EXPECT_GT(r.packetsMeasured, 0u);
  EXPECT_EQ(exp.network().packetsDropped(), 0u);
  // The faults were live mid-run...
  EXPECT_GT(exp.sim().now(), spec.fault.at);
  // ...and revive on schedule: drain the remaining events past `until`.
  exp.sim().run();
  EXPECT_GE(exp.sim().now(), spec.fault.until);
  EXPECT_EQ(exp.deadPortMask()->deadCount(), 0u);
}

TEST(FaultRoutingDeath, TransientPartitionRejectedUpfront) {
  harness::ExperimentSpec spec = degradedSpec("omniwar", 0.0, 1);
  topo::HyperX probe({{4, 4}, 2});
  // Kill every link out of router 0 for a mid-run window: rejected at
  // construction, before any cycle runs.
  std::string links;
  for (PortId p = probe.terminalsPerRouter(); p < probe.numPorts(0); ++p) {
    if (!links.empty()) links += ",";
    links += "0:" + std::to_string(p);
  }
  spec.fault.links = links;
  spec.fault.at = 1000;
  spec.fault.until = 2000;
  EXPECT_DEATH(harness::Experiment exp(spec), "partitions the network");
}

// --- harness contract ------------------------------------------------------

TEST(FaultSpecSerialize, RoundTripsThroughConfigText) {
  harness::ExperimentSpec spec;
  spec.fault.rate = 0.07;
  spec.fault.seed = 4242;
  spec.fault.links = "0:4,3:5";
  spec.fault.routers = "9";
  spec.fault.at = 1000;
  spec.fault.until = 2500;

  Flags flags;
  ASSERT_TRUE(flags.loadText(spec.serialize()));
  const auto back = harness::ExperimentSpec::fromFlags(flags);
  EXPECT_EQ(back.fault.rate, spec.fault.rate);
  EXPECT_EQ(back.fault.seed, spec.fault.seed);
  EXPECT_EQ(back.fault.links, spec.fault.links);
  EXPECT_EQ(back.fault.routers, spec.fault.routers);
  EXPECT_EQ(back.fault.at, spec.fault.at);
  EXPECT_EQ(back.fault.until, spec.fault.until);
}

TEST(FaultSpecSerialize, FaultPolicyRoundTrips) {
  for (const auto policy : {fault::FaultPolicy::kDrop, fault::FaultPolicy::kRetry,
                            fault::FaultPolicy::kEscape}) {
    SCOPED_TRACE(fault::faultPolicyName(policy));
    harness::ExperimentSpec spec;
    spec.fault.rate = 0.05;
    spec.fault.policy = policy;
    Flags flags;
    ASSERT_TRUE(flags.loadText(spec.serialize()));
    EXPECT_EQ(harness::ExperimentSpec::fromFlags(flags).fault.policy, policy);
  }
}

TEST(FaultEscape, EscapeTableEmitsDistanceDescentOnly) {
  // The escape table's candidates walk strictly downhill on the masked BFS
  // distance to the destination — the monotone-descent property behind the
  // connected-network delivery guarantee.
  topo::HyperX topo({{4}, 1});  // K4 clique
  fault::FaultSpec spec;
  spec.links = "0:" + std::to_string(topo.dimPort(0, 0, 1));
  const auto mask = maskFor(topo, fault::buildFaultSet(topo, spec));
  routing::EscapeTable table(topo);

  // 0 -> 1 direct is dead: distance 2, and every candidate must step to a
  // router at distance 1 (any surviving neighbor of 1).
  EXPECT_EQ(table.distance(mask, 0, 1), 2u);
  std::vector<routing::Candidate> out;
  table.emitEscape(mask, 0, 1, /*escapeClass=*/1, out);
  ASSERT_FALSE(out.empty());
  for (const auto& c : out) {
    EXPECT_TRUE(c.atomic);
    EXPECT_TRUE(c.faultEscape);
    EXPECT_EQ(c.vcClass, 1u);
    EXPECT_EQ(c.hopsRemaining, 2u);
    const auto target = topo.portTarget(0, c.port);
    ASSERT_EQ(target.kind, topo::Topology::PortTarget::Kind::kRouter);
    EXPECT_EQ(table.distance(mask, target.router, 1), 1u);
  }
  // At the destination router there is no escape step to take.
  out.clear();
  table.emitEscape(mask, 1, 1, 1, out);
  EXPECT_TRUE(out.empty());
}

TEST(FaultSpecSerialize, FaultlessSpecStaysFaultFree) {
  const harness::ExperimentSpec spec;
  EXPECT_FALSE(spec.fault.active());
  EXPECT_EQ(spec.serialize().find("fault"), std::string::npos);
  Flags flags;
  ASSERT_TRUE(flags.loadText(spec.serialize()));
  EXPECT_FALSE(harness::ExperimentSpec::fromFlags(flags).fault.active());
}

TEST(FaultSweep, JobsInvariantOnFaultedNetwork) {
  topo::HyperX probe({{4, 4}, 2});
  const std::uint64_t seed = routableSeed(probe, 0.08, 100);
  auto spec = degradedSpec("dimwar", 0.08, seed);
  const std::vector<double> loads = {0.1, 0.2, 0.3};
  harness::SweepOptions serial;
  serial.jobs = 1;
  harness::SweepOptions parallel;
  parallel.jobs = 4;
  const auto a = harness::runLoadSweep(spec, loads, serial);
  const auto b = harness::runLoadSweep(spec, loads, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(a[i].result.accepted, b[i].result.accepted);
    EXPECT_EQ(a[i].result.latencyMean, b[i].result.latencyMean);
    EXPECT_EQ(a[i].result.packetsMeasured, b[i].result.packetsMeasured);
    EXPECT_EQ(a[i].result.packetsDropped, b[i].result.packetsDropped);
    EXPECT_EQ(a[i].result.droppedShare, b[i].result.droppedShare);
    EXPECT_EQ(a[i].result.avgStretch, b[i].result.avgStretch);
  }
  // The sweep measured the degraded network, not a per-point re-draw: the
  // fault seed survives sweep-point derivation.
  EXPECT_EQ(harness::sweepPointConfig(spec, 0.2, 1).fault.seed, spec.fault.seed);
}

}  // namespace
}  // namespace hxwar
