// Observability layer tests: histogram buckets/percentiles, SampleStats edge
// cases, trace JSON round-trip, routing-decision counters, sampler rows, and
// the "observation does not perturb the simulation" invariant.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/spec.h"
#include "metrics/stats.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/net_observer.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "obs/window.h"

namespace hxwar {
namespace {

// The Obs.* integration tests need the harness to attach a real observer;
// under -DHXWAR_OBS=OFF the hook sites compile out, so they skip instead.
#define HXWAR_REQUIRE_OBS() \
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "built with HXWAR_OBS=OFF"

// Tiny spec with short steady-state windows so a full run stays in the
// tier-1 time budget.
harness::ExperimentSpec quickTinySpec(const std::string& routing, double load) {
  harness::ExperimentSpec spec = harness::scaleSpec("tiny");
  spec.routing = routing;
  spec.injection.rate = load;
  spec.steady.warmupWindow = 300;
  spec.steady.maxWarmupWindows = 8;
  spec.steady.measureWindow = 800;
  spec.steady.drainWindow = 3000;
  spec.steady.minMeasurePackets = 1;
  // 18 nodes at low load put only ~50 packets in each short window, so the
  // per-window accepted rate carries ~±13% sampling noise. Loosen the
  // saturation-detector tolerances: these tests exercise metric plumbing at
  // loads far below saturation, not the detector's discrimination.
  spec.steady.acceptedTol = 0.70;
  spec.steady.stabilityTol = 0.15;
  return spec;
}

TEST(LogHistogram, BucketEdgesArePowersOfTwo) {
  using obs::LogHistogram;
  EXPECT_EQ(LogHistogram::bucketOf(0.0), 0u);
  EXPECT_EQ(LogHistogram::bucketOf(0.9), 0u);
  EXPECT_EQ(LogHistogram::bucketOf(-5.0), 0u);   // clamps, no UB
  EXPECT_EQ(LogHistogram::bucketOf(std::nan("")), 0u);
  EXPECT_EQ(LogHistogram::bucketOf(1.0), 1u);    // [1, 2)
  EXPECT_EQ(LogHistogram::bucketOf(1.99), 1u);
  EXPECT_EQ(LogHistogram::bucketOf(2.0), 2u);    // [2, 4)
  EXPECT_EQ(LogHistogram::bucketOf(3.0), 2u);
  EXPECT_EQ(LogHistogram::bucketOf(4.0), 3u);    // [4, 8)
  EXPECT_EQ(LogHistogram::bucketOf(1e30), LogHistogram::kBuckets - 1);
  for (std::uint32_t b = 1; b < LogHistogram::kBuckets; ++b) {
    // Each bucket's low edge is the previous bucket's high edge: no gaps.
    EXPECT_EQ(LogHistogram::bucketLow(b), LogHistogram::bucketHigh(b - 1));
    // A value at the low edge lands in its own bucket, not the one below.
    if (b < 60) {
      EXPECT_EQ(LogHistogram::bucketOf(LogHistogram::bucketLow(b)), b);
    }
  }
}

TEST(LogHistogram, PercentilesAndMerge) {
  obs::LogHistogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty => 0.0 by convention
  for (int i = 0; i < 100; ++i) h.add(10.0);  // all in [8, 16)
  EXPECT_EQ(h.total(), 100u);
  EXPECT_GE(h.percentile(0.5), 8.0);
  EXPECT_LT(h.percentile(0.5), 16.0);
  EXPECT_LE(h.percentile(0.0), h.percentile(1.0));
  EXPECT_EQ(h.percentile(-1.0), h.percentile(0.0));  // clamps
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));

  obs::LogHistogram tail;
  tail.add(1000.0);
  h.merge(tail);
  EXPECT_EQ(h.total(), 101u);
  EXPECT_GE(h.percentile(1.0), 512.0);  // the merged outlier owns p100
}

TEST(SampleStats, PercentileEdgeCases) {
  metrics::SampleStats s;
  // Empty: no order statistics; 0.0 by convention (documented in stats.h).
  EXPECT_EQ(s.percentile(0.0), 0.0);
  EXPECT_EQ(s.percentile(0.5), 0.0);
  EXPECT_EQ(s.percentile(1.0), 0.0);
  for (const double v : {5.0, 1.0, 9.0, 3.0, 7.0}) s.add(v);
  EXPECT_EQ(s.percentile(0.0), s.min());   // p0 == min
  EXPECT_EQ(s.percentile(1.0), s.max());   // p100 == max
  EXPECT_EQ(s.percentile(0.5), 5.0);       // nearest-rank median
  // Out-of-range p clamps instead of indexing out of bounds.
  EXPECT_EQ(s.percentile(-3.0), s.min());
  EXPECT_EQ(s.percentile(42.0), s.max());
}

TEST(Trace, ChromeJsonParsesBack) {
  obs::TraceBuffer buf;
  buf.add({obs::TraceKind::kBegin, 10, 7, 0, 5, 4, 0});
  buf.add({obs::TraceKind::kInject, 12, 7, 0, 0, 0, 0});
  buf.add({obs::TraceKind::kRoute, 15, 7, 2, 3, 1, 1u | (2u << 8)});  // deroute, dim 2
  buf.add({obs::TraceKind::kHop, 16, 7, 2, 1, 3, 0});
  buf.add({obs::TraceKind::kEnd, 40, 7, 0, 3, 1, 0});
  obs::TraceEvent counter{obs::TraceKind::kCounter, 50, 0, 4, 0, 0, 0};
  counter.v0 = 100.0;
  counter.v1 = 90.0;
  counter.v2 = 8.0;
  counter.v3 = 12.0;
  buf.add(counter);

  std::string body;
  obs::appendChromeJson(buf, 3, body);
  const std::string doc =
      "{\"traceEvents\":[" + obs::chromeProcessName(3, "point 0") + "," + body + "]}";

  obs::JsonValue root;
  std::string error;
  ASSERT_TRUE(obs::parseJson(doc, root, error)) << error << "\n" << doc;
  const obs::JsonValue* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  // M + b + n(inject) + n(route) + n(hop) + e + two C tracks.
  ASSERT_EQ(events->array.size(), 8u);

  const obs::JsonValue& route = events->array[3];
  EXPECT_EQ(route.get("name")->string, "route");
  EXPECT_EQ(route.get("ph")->string, "n");
  EXPECT_EQ(route.get("pid")->number, 3.0);
  EXPECT_EQ(route.get("args")->get("verdict")->string, "deroute");
  EXPECT_EQ(route.get("args")->get("dim")->number, 2.0);

  const obs::JsonValue& end = events->array[5];
  EXPECT_EQ(end.get("ph")->string, "e");
  EXPECT_EQ(end.get("args")->get("hops")->number, 3.0);

  const obs::JsonValue& flits = events->array[6];
  EXPECT_EQ(flits.get("ph")->string, "C");
  EXPECT_EQ(flits.get("args")->get("injected")->number, 100.0);
  EXPECT_EQ(flits.get("args")->get("credit_stalls")->number, 4.0);
}

TEST(Json, RejectsMalformedInput) {
  obs::JsonValue v;
  std::string error;
  EXPECT_FALSE(obs::parseJson("{\"a\":", v, error));
  EXPECT_FALSE(obs::parseJson("{} trailing", v, error));
  EXPECT_FALSE(obs::parseJson("", v, error));
  EXPECT_TRUE(obs::parseJson("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":null,\"d\":true}}", v,
                             error))
      << error;
  EXPECT_EQ(v.get("a")->array.size(), 3u);
  EXPECT_TRUE(v.get("b")->get("c")->isNull());
}

TEST(Registry, CounterSlotsAreStable) {
  obs::Registry reg;
  std::uint64_t* a = reg.counter("a");
  *a = 5;
  // Force growth; the first slot's address must survive.
  for (int i = 0; i < 100; ++i) reg.counter("slot" + std::to_string(i));
  EXPECT_EQ(reg.counter("a"), a);
  EXPECT_EQ(*reg.counter("a"), 5u);
  reg.gauge("g", [] { return 2.5; });
  ASSERT_NE(reg.findGauge("g"), nullptr);
  EXPECT_EQ((*reg.findGauge("g"))(), 2.5);
  EXPECT_EQ(reg.findGauge("missing"), nullptr);
  const auto counters = reg.counters();
  ASSERT_FALSE(counters.empty());
  EXPECT_EQ(counters[0].name, "a");  // registration order
  EXPECT_EQ(counters[0].value, 5u);
}

// Valiant commits every source-routed packet to exactly one intermediate:
// one path-level deroute per packet, zero hop-level deroute flags.
TEST(Obs, ValiantCountsOnePathDeroutePerPacket) {
  HXWAR_REQUIRE_OBS();
  harness::ExperimentSpec spec = quickTinySpec("val", 0.1);
  spec.obs.traceOut = "unused";  // enables the observer; no file is written here
  harness::Experiment exp(spec);
  net::Network& network = exp.network();
  const topo::Topology& topology = exp.topology();

  std::uint64_t injected = 0;
  for (NodeId s = 0; s < network.numNodes(); ++s) {
    const NodeId d = (s + 5) % network.numNodes();
    if (topology.nodeRouter(s) == topology.nodeRouter(d)) continue;
    network.injectPacket(s, d, 4);
    injected += 1;
  }
  ASSERT_GT(injected, 0u);
  exp.sim().run();
  ASSERT_EQ(network.packetsEjected(), injected);

  ASSERT_NE(exp.observer(), nullptr);
  const obs::RoutingCounters rc = exp.observer()->routingCounters();
  EXPECT_EQ(rc.pathDeroutes, injected);
  EXPECT_EQ(rc.derouteGrants, 0u);  // VAL's phases are hop-minimal
  EXPECT_GT(rc.decisions, 0u);
}

// The observer's deroute-grant counter and the routers' per-port counters see
// the same grants.
TEST(Obs, DerouteGrantsMatchRouterPortCounters) {
  HXWAR_REQUIRE_OBS();
  harness::ExperimentSpec spec = quickTinySpec("dimwar", 0.35);
  spec.obs.metricsJson = "unused";
  harness::Experiment exp(spec);
  exp.run();

  net::Network& network = exp.network();
  std::uint64_t portGrants = 0;
  for (RouterId r = 0; r < network.numRouters(); ++r) {
    for (PortId p = 0; p < network.router(r).numPorts(); ++p) {
      portGrants += network.router(r).portDeroutesGranted(p);
    }
  }
  ASSERT_NE(exp.observer(), nullptr);
  const obs::RoutingCounters rc = exp.observer()->routingCounters();
  EXPECT_EQ(rc.derouteGrants, portGrants);

  // Every grant lands in exactly one VC bucket.
  std::uint64_t vcSum = 0;
  for (const std::uint64_t v : rc.grantsByVc) vcSum += v;
  EXPECT_EQ(vcSum, rc.decisions);

  // Every taken deroute is attributed to exactly one dimension slot.
  std::uint64_t dimSum = 0;
  for (const std::uint64_t v : rc.derouteTakenByDim) dimSum += v;
  EXPECT_EQ(dimSum, rc.derouteGrants);
}

// Histograms, tail percentiles, and per-dimension counters populate for all
// seven HyperX algorithms of the paper.
TEST(Obs, MetricsPopulateForAllAlgorithms) {
  HXWAR_REQUIRE_OBS();
  const std::vector<std::string> algorithms = {"dor",    "val",    "minad", "ugal",
                                               "closad", "dimwar", "omniwar"};
  for (const std::string& algo : algorithms) {
    SCOPED_TRACE(algo);
    harness::ExperimentSpec spec = quickTinySpec(algo, 0.1);
    spec.obs.metricsJson = "unused";
    harness::Experiment exp(spec);
    const metrics::SteadyStateResult r = exp.run();
    ASSERT_FALSE(r.saturated);
    EXPECT_GT(r.packetsMeasured, 0u);
    EXPECT_GT(r.latencyP50, 0.0);
    EXPECT_GE(r.latencyP90, r.latencyP50);
    EXPECT_GE(r.latencyP99, r.latencyP90);
    EXPECT_GE(r.latencyP999, r.latencyP99);
    EXPECT_LE(r.latencyP999, r.latencyMax);
    EXPECT_EQ(r.latencyHistogram.total(), r.packetsMeasured);
    std::uint64_t hopPackets = 0;
    for (const auto& h : r.hopLatency) hopPackets += h.packets;
    EXPECT_EQ(hopPackets, r.packetsMeasured);
    EXPECT_GT(r.routing.decisions, 0u);
    // numDims() attributable slots + one unattributable tail slot.
    EXPECT_EQ(r.routing.derouteTakenByDim.size(), 3u);   // tiny = 2D HyperX
    EXPECT_EQ(r.routing.derouteRefusedByDim.size(), 3u);
    EXPECT_EQ(r.routing.grantsByVc.size(), spec.net.router.numVcs);
  }
}

// Attaching the observer (tracing every packet + sampling) must not change a
// single measured value: observation reads simulation state, never drives it.
TEST(Obs, ObserverDoesNotPerturbTheSimulation) {
  HXWAR_REQUIRE_OBS();
  const harness::ExperimentSpec base = quickTinySpec("dimwar", 0.25);

  harness::ExperimentSpec plain = base;
  harness::Experiment expPlain(plain);
  const metrics::SteadyStateResult a = expPlain.run();
  EXPECT_EQ(expPlain.observer(), nullptr);

  harness::ExperimentSpec observed = base;
  observed.obs.traceOut = "unused";
  observed.obs.traceSample = 1;
  observed.obs.sampleInterval = 100;
  harness::Experiment expObs(observed);
  const metrics::SteadyStateResult b = expObs.run();
  ASSERT_NE(expObs.observer(), nullptr);

  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.latencyMean, b.latencyMean);
  EXPECT_EQ(a.latencyP50, b.latencyP50);
  EXPECT_EQ(a.latencyP99, b.latencyP99);
  EXPECT_EQ(a.latencyP999, b.latencyP999);
  EXPECT_EQ(a.avgHops, b.avgHops);
  EXPECT_EQ(a.avgDeroutes, b.avgDeroutes);
  EXPECT_EQ(a.packetsMeasured, b.packetsMeasured);
  EXPECT_EQ(a.warmupCycles, b.warmupCycles);
  EXPECT_EQ(expPlain.sim().eventsProcessed() +
                expObs.observer()->samples().size(),
            expObs.sim().eventsProcessed())
      << "observer added events beyond the sampler's own ticks";
}

// The flight recorder's windows tile the run: contiguous [start, end) spans,
// indices from 0, and per-window count consistency (every delivered packet
// lands in exactly one window's latency histogram).
TEST(Obs, RecorderWindowsAreContiguousAndConsistent) {
  HXWAR_REQUIRE_OBS();
  harness::ExperimentSpec spec = quickTinySpec("dimwar", 0.25);
  spec.obs.windowTicks = 250;
  harness::Experiment exp(spec);
  exp.run();
  ASSERT_NE(exp.recorder(), nullptr);
  const std::vector<obs::WindowRecord>& ws = exp.recorder()->windows();
  ASSERT_GT(ws.size(), 2u);
  std::uint64_t ejected = 0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    const obs::WindowRecord& w = ws[i];
    EXPECT_EQ(w.index, i);
    EXPECT_EQ(w.start, i == 0 ? 0u : ws[i - 1].end);
    EXPECT_GT(w.end, w.start);
    // The windowed histogram and the packets_ejected delta count the same
    // completions, read at the same kEpsControl boundary.
    EXPECT_EQ(w.latency.total(), w.packetsEjected);
    EXPECT_EQ(w.vcOccupancy.size(), spec.net.router.numVcs);
    EXPECT_LE(w.hotLinks.size(), obs::FlightRecorder::kHotLinks);
    for (std::size_t j = 1; j < w.hotLinks.size(); ++j) {
      const obs::LinkWindowStat& a = w.hotLinks[j - 1];
      const obs::LinkWindowStat& b = w.hotLinks[j];
      EXPECT_TRUE(a.flits > b.flits ||
                  (a.flits == b.flits && a.stallTicks >= b.stallTicks))
          << "hot links not sorted at slot " << j;
    }
    ejected += w.packetsEjected;
  }
  EXPECT_GT(ejected, 0u);
  EXPECT_LE(ejected, exp.network().packetsEjected());
  // Serial run: no parallel engine, so no shard-balance records.
  EXPECT_TRUE(exp.recorder()->shardWindows().empty());
}

// Transient-fault kill/revive edges land as annotations in the windows that
// contain them.
TEST(Obs, RecorderAnnotatesTransientFaultEdges) {
  HXWAR_REQUIRE_OBS();
  harness::ExperimentSpec spec = quickTinySpec("dal", 0.2);
  spec.fault.rate = 0.06;
  spec.fault.seed = 99;
  spec.fault.policy = fault::FaultPolicy::kDrop;
  spec.fault.at = 500;
  spec.fault.until = 1400;
  spec.obs.windowTicks = 400;
  harness::Experiment exp(spec);
  exp.run();
  ASSERT_NE(exp.recorder(), nullptr);
  bool sawKill = false;
  bool sawRevive = false;
  for (const obs::WindowRecord& w : exp.recorder()->windows()) {
    for (const std::string& a : w.annotations) {
      if (a == "fault_kill tick=500") {
        EXPECT_TRUE(w.start < 500 && 500 <= w.end);
        sawKill = true;
      }
      if (a == "fault_revive tick=1400") {
        EXPECT_TRUE(w.start < 1400 && 1400 <= w.end);
        sawRevive = true;
      }
    }
  }
  EXPECT_TRUE(sawKill);
  EXPECT_TRUE(sawRevive);
}

// Attaching the flight recorder (with the sampler riding along) must not
// change a single measured value: recording reads simulation state only.
TEST(Obs, RecorderDoesNotPerturbTheSimulation) {
  HXWAR_REQUIRE_OBS();
  const harness::ExperimentSpec base = quickTinySpec("dimwar", 0.25);

  harness::Experiment expPlain(base);
  const metrics::SteadyStateResult a = expPlain.run();
  EXPECT_EQ(expPlain.recorder(), nullptr);

  harness::ExperimentSpec windowed = base;
  windowed.obs.windowTicks = 200;
  windowed.obs.sampleInterval = 100;
  harness::Experiment expWin(windowed);
  const metrics::SteadyStateResult b = expWin.run();
  ASSERT_NE(expWin.recorder(), nullptr);

  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.latencyMean, b.latencyMean);
  EXPECT_EQ(a.latencyP50, b.latencyP50);
  EXPECT_EQ(a.latencyP99, b.latencyP99);
  EXPECT_EQ(a.avgHops, b.avgHops);
  EXPECT_EQ(a.avgDeroutes, b.avgDeroutes);
  EXPECT_EQ(a.packetsMeasured, b.packetsMeasured);
  EXPECT_EQ(a.warmupCycles, b.warmupCycles);
}

TEST(Obs, SamplerRecordsMonotonicRows) {
  HXWAR_REQUIRE_OBS();
  harness::ExperimentSpec spec = quickTinySpec("dimwar", 0.2);
  spec.obs.sampleInterval = 250;
  harness::Experiment exp(spec);
  exp.run();
  ASSERT_NE(exp.observer(), nullptr);
  const std::vector<obs::SampleRow>& rows = exp.observer()->samples();
  ASSERT_GT(rows.size(), 2u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].tick % 250, 0u);
    if (i == 0) continue;
    EXPECT_GT(rows[i].tick, rows[i - 1].tick);
    // Cumulative counters never regress.
    EXPECT_GE(rows[i].flitsInjected, rows[i - 1].flitsInjected);
    EXPECT_GE(rows[i].flitsEjected, rows[i - 1].flitsEjected);
    EXPECT_GE(rows[i].flitMovements, rows[i - 1].flitMovements);
    EXPECT_GE(rows[i].creditStalls, rows[i - 1].creditStalls);
  }
  EXPECT_GT(rows.back().flitsEjected, 0u);
}

}  // namespace
}  // namespace hxwar
