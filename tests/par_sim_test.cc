// Conservative intra-point parallel engine (sim/par, DESIGN.md §12): the
// determinism contract. A sweep point run with --point-jobs=N shards must
// produce bit-identical results — steady-state metrics, routing counters,
// sampler rows, and canonical traces — to the serial engine, for every
// algorithm family, with and without faults and tracing. Plus the barrier
// merge-order property: replaying the same sharded experiment gives the
// same per-shard event counts, independent of thread scheduling.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/spec.h"
#include "net/network.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "sim/par/engine.h"

namespace hxwar {
namespace {

// Tiny 3x3 HyperX (9 routers, 18 nodes) so every shard count in {1,2,4}
// exercises uneven contiguous partitions. Short windows keep the full
// algorithm x variant x shard matrix inside the tier-1 budget.
harness::ExperimentSpec tinySpec(const std::string& routing) {
  harness::ExperimentSpec spec = harness::scaleSpec("tiny");
  spec.routing = routing;
  spec.injection.rate = 0.15;
  spec.steady.warmupWindow = 300;
  spec.steady.maxWarmupWindows = 6;
  spec.steady.measureWindow = 600;
  spec.steady.drainWindow = 3000;
  spec.steady.minMeasurePackets = 1;
  return spec;
}

void expectResultsIdentical(const metrics::SteadyStateResult& a,
                            const metrics::SteadyStateResult& b) {
  // Exact floating-point equality on purpose: the sharded engine must replay
  // the serial computation, not approximate it.
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.latencyMean, b.latencyMean);
  EXPECT_EQ(a.latencyP50, b.latencyP50);
  EXPECT_EQ(a.latencyP90, b.latencyP90);
  EXPECT_EQ(a.latencyP99, b.latencyP99);
  EXPECT_EQ(a.latencyP999, b.latencyP999);
  EXPECT_EQ(a.latencyMin, b.latencyMin);
  EXPECT_EQ(a.latencyMax, b.latencyMax);
  EXPECT_EQ(a.avgHops, b.avgHops);
  EXPECT_EQ(a.avgDeroutes, b.avgDeroutes);
  EXPECT_EQ(a.avgStretch, b.avgStretch);
  EXPECT_EQ(a.droppedShare, b.droppedShare);
  EXPECT_EQ(a.packetsMeasured, b.packetsMeasured);
  EXPECT_EQ(a.packetsDropped, b.packetsDropped);
  EXPECT_EQ(a.unreachablePairs, b.unreachablePairs);
  EXPECT_EQ(a.unreachableRouters, b.unreachableRouters);
  EXPECT_EQ(a.warmupCycles, b.warmupCycles);
  ASSERT_EQ(a.hopLatency.size(), b.hopLatency.size());
  for (std::size_t h = 0; h < a.hopLatency.size(); ++h) {
    EXPECT_EQ(a.hopLatency[h].packets, b.hopLatency[h].packets);
    EXPECT_EQ(a.hopLatency[h].meanLatency, b.hopLatency[h].meanLatency);
  }
  EXPECT_EQ(a.routing.decisions, b.routing.decisions);
  EXPECT_EQ(a.routing.derouteGrants, b.routing.derouteGrants);
  EXPECT_EQ(a.routing.derouteRefusals, b.routing.derouteRefusals);
  EXPECT_EQ(a.routing.faultEscapes, b.routing.faultEscapes);
  EXPECT_EQ(a.routing.pathDeroutes, b.routing.pathDeroutes);
  EXPECT_EQ(a.routing.creditStalls, b.routing.creditStalls);
  EXPECT_EQ(a.routing.derouteTakenByDim, b.routing.derouteTakenByDim);
  EXPECT_EQ(a.routing.derouteRefusedByDim, b.routing.derouteRefusedByDim);
  EXPECT_EQ(a.routing.grantsByVc, b.routing.grantsByVc);
}

void expectTracesIdentical(const obs::TraceBuffer& a, const obs::TraceBuffer& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("trace event " + std::to_string(i));
    const obs::TraceEvent& ea = a.events()[i];
    const obs::TraceEvent& eb = b.events()[i];
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.ts, eb.ts);
    EXPECT_EQ(ea.id, eb.id);
    EXPECT_EQ(ea.a, eb.a);
    EXPECT_EQ(ea.b, eb.b);
    EXPECT_EQ(ea.c, eb.c);
    EXPECT_EQ(ea.d, eb.d);
    EXPECT_EQ(ea.v0, eb.v0);
    EXPECT_EQ(ea.v1, eb.v1);
    EXPECT_EQ(ea.v2, eb.v2);
    EXPECT_EQ(ea.v3, eb.v3);
  }
}

void expectSamplesIdentical(const std::vector<obs::SampleRow>& a,
                            const std::vector<obs::SampleRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("sample row " + std::to_string(i));
    EXPECT_EQ(a[i].tick, b[i].tick);
    EXPECT_EQ(a[i].flitsInjected, b[i].flitsInjected);
    EXPECT_EQ(a[i].flitsEjected, b[i].flitsEjected);
    EXPECT_EQ(a[i].flitMovements, b[i].flitMovements);
    EXPECT_EQ(a[i].backlogFlits, b[i].backlogFlits);
    EXPECT_EQ(a[i].queuedFlits, b[i].queuedFlits);
    EXPECT_EQ(a[i].creditStalls, b[i].creditStalls);
    EXPECT_EQ(a[i].packetsOutstanding, b[i].packetsOutstanding);
  }
}

void expectPointJobsInvariant(const harness::ExperimentSpec& base) {
  harness::ExperimentSpec serial = base;
  serial.pointJobs = 1;
  const harness::SweepPoint ref = harness::runSweepPoint(serial, base.injection.rate, 0);
  for (const std::uint32_t jobs : {2u, 4u}) {
    SCOPED_TRACE("point-jobs=" + std::to_string(jobs));
    harness::ExperimentSpec sharded = base;
    sharded.pointJobs = jobs;
    const harness::SweepPoint got = harness::runSweepPoint(sharded, base.injection.rate, 0);
    expectResultsIdentical(ref.result, got.result);
    expectTracesIdentical(ref.trace, got.trace);
    expectSamplesIdentical(ref.samples, got.samples);
  }
}

// Canonical byte serialization of a point's window stream — exactly what
// --timeline-out writes per window, so equality here is equality of the
// shipped artifact.
std::string windowsJsonl(const std::vector<obs::WindowRecord>& windows) {
  std::string out;
  for (const obs::WindowRecord& w : windows) obs::appendWindowJsonl(0, w, out);
  return out;
}

// The flight-recorder contract on top of the engine contract: the window
// stream must be byte-identical across shard counts, while the shard-balance
// stream's shape follows the shard count (empty serial, one vector entry per
// shard when sharded).
void expectWindowsInvariant(harness::ExperimentSpec base) {
  base.obs.windowTicks = 250;
  harness::ExperimentSpec serial = base;
  serial.pointJobs = 1;
  const harness::SweepPoint ref = harness::runSweepPoint(serial, base.injection.rate, 0);
  ASSERT_FALSE(ref.windows.empty());
  ASSERT_TRUE(ref.shardWindows.empty());
  const std::string refJsonl = windowsJsonl(ref.windows);
  for (const std::uint32_t jobs : {2u, 4u}) {
    SCOPED_TRACE("point-jobs=" + std::to_string(jobs));
    harness::ExperimentSpec sharded = base;
    sharded.pointJobs = jobs;
    const harness::SweepPoint got = harness::runSweepPoint(sharded, base.injection.rate, 0);
    expectResultsIdentical(ref.result, got.result);
    EXPECT_EQ(refJsonl, windowsJsonl(got.windows));
    ASSERT_FALSE(got.shardWindows.empty());
    EXPECT_EQ(got.shardWindows.size(), got.windows.size());
    for (const obs::ShardWindowRecord& sr : got.shardWindows) {
      EXPECT_EQ(sr.shardEvents.size(), jobs);
      EXPECT_EQ(sr.loadRatio, obs::shardLoadRatio(sr.shardEvents));
    }
  }
}

TEST(ParSim, TimelineBitIdenticalPlain) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "built with HXWAR_OBS=OFF";
  for (const std::string algo : {"dimwar", "omniwar"}) {
    SCOPED_TRACE(algo);
    expectWindowsInvariant(tinySpec(algo));
  }
}

TEST(ParSim, TimelineBitIdenticalFaulted) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "built with HXWAR_OBS=OFF";
  harness::ExperimentSpec spec = tinySpec("dal");
  spec.fault.rate = 0.06;
  spec.fault.seed = 99;
  spec.fault.policy = fault::FaultPolicy::kDrop;
  expectWindowsInvariant(spec);
}

TEST(ParSim, TimelineBitIdenticalTransientFault) {
  // The kill/revive annotations ride inside the serialized windows, so the
  // byte comparison also proves the annotation stream is shard-invariant.
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "built with HXWAR_OBS=OFF";
  harness::ExperimentSpec spec = tinySpec("dal");
  spec.fault.rate = 0.06;
  spec.fault.seed = 99;
  spec.fault.policy = fault::FaultPolicy::kDrop;
  spec.fault.at = 500;
  spec.fault.until = 1400;
  expectWindowsInvariant(spec);
}

TEST(ParSim, BitIdenticalPlain) {
  for (const std::string algo : {"dimwar", "omniwar", "dal"}) {
    SCOPED_TRACE(algo);
    expectPointJobsInvariant(tinySpec(algo));
  }
}

TEST(ParSim, BitIdenticalFaulted) {
  for (const std::string algo : {"dimwar", "omniwar", "dal"}) {
    SCOPED_TRACE(algo);
    harness::ExperimentSpec spec = tinySpec(algo);
    spec.fault.rate = 0.06;
    spec.fault.seed = 99;
    spec.fault.policy = fault::FaultPolicy::kDrop;  // dead ends drop instead of aborting
    expectPointJobsInvariant(spec);
  }
}

TEST(ParSim, BitIdenticalFaultPolicyMatrix) {
  // The graceful-degradation ladder (--fault-policy) must be
  // --point-jobs-invariant in every mode, including ftar's escape-VC
  // escalation and the retry path's backoff timing. The softer policies
  // tolerate partitioned fault sets, so no seed screening is needed.
  const fault::FaultPolicy policies[] = {fault::FaultPolicy::kDrop,
                                         fault::FaultPolicy::kRetry,
                                         fault::FaultPolicy::kEscape};
  for (const std::string algo : {"dimwar", "ftar"}) {
    for (const fault::FaultPolicy policy : policies) {
      SCOPED_TRACE(algo + "/" + fault::faultPolicyName(policy));
      harness::ExperimentSpec spec = tinySpec(algo);
      spec.fault.rate = 0.10;
      spec.fault.seed = 77;
      spec.fault.policy = policy;
      expectPointJobsInvariant(spec);
    }
  }
}

TEST(ParSim, BitIdenticalTransientFaultAcrossShards) {
  // Transient faults exercise the control-event path: the FaultController
  // flips the dead-port mask on the control simulator at an epsilon-aware
  // window bound, so every shard observes the flip at the same tick.
  harness::ExperimentSpec spec = tinySpec("dal");
  spec.fault.rate = 0.06;
  spec.fault.seed = 99;
  spec.fault.policy = fault::FaultPolicy::kDrop;
  spec.fault.at = 500;
  spec.fault.until = 1400;
  expectPointJobsInvariant(spec);
}

TEST(ParSim, BitIdenticalTraced) {
  for (const std::string algo : {"dimwar", "omniwar", "dal"}) {
    SCOPED_TRACE(algo);
    harness::ExperimentSpec spec = tinySpec(algo);
    spec.obs.traceOut = "unused";  // enables tracing; no file written here
    spec.obs.traceSample = 1;      // every packet
    spec.obs.sampleInterval = 250; // sampler rows ride along
    expectPointJobsInvariant(spec);
  }
}

TEST(ParSim, BitIdenticalDragonfly) {
  // The engine is topology-agnostic: same contract off the HyperX family.
  harness::ExperimentSpec spec;
  spec.topology = "dragonfly";
  spec.routing = "ugal";
  spec.params["df-p"] = "2";
  spec.params["df-a"] = "4";
  spec.params["df-h"] = "2";
  spec.injection.rate = 0.1;
  spec.steady.warmupWindow = 300;
  spec.steady.maxWarmupWindows = 6;
  spec.steady.measureWindow = 600;
  spec.steady.drainWindow = 3000;
  spec.steady.minMeasurePackets = 1;
  expectPointJobsInvariant(spec);
}

TEST(ParSim, BitIdenticalWhilePacketPoolsGrow) {
  // A saturated small OmniWAR/URBy point: source queues grow without bound,
  // so every lane keeps adding 1,024-slot chunks to its packet pool while the
  // other lanes' workers resolve refs into it. The tiny specs above stay
  // within one chunk per lane and never grow a pool under cross-lane reads.
  harness::ExperimentSpec spec = harness::scaleSpec("small");
  spec.routing = "omniwar";
  spec.pattern = "urby";
  spec.injection.rate = 1.0;
  spec.steady.warmupWindow = 300;
  spec.steady.maxWarmupWindows = 4;
  spec.steady.measureWindow = 600;
  const metrics::SteadyStateResult ref =
      harness::runSweepPoint(spec, spec.injection.rate, 0).result;
  EXPECT_TRUE(ref.saturated);
  for (const std::uint32_t jobs : {2u, 4u}) {
    SCOPED_TRACE("point-jobs=" + std::to_string(jobs));
    harness::ExperimentSpec sharded = spec;
    sharded.pointJobs = jobs;
    harness::Experiment exp(harness::sweepPointConfig(sharded, spec.injection.rate, 0));
    expectResultsIdentical(ref, exp.run());
    ASSERT_EQ(exp.network().numLanes(), jobs);
    for (std::uint32_t lane = 0; lane < jobs; ++lane) {
      EXPECT_GE(exp.network().pool(lane).size(), std::size_t{4} * net::PacketPool::kChunkSize)
          << "lane " << lane;
    }
  }
}

TEST(ParSim, ShardCountClampsToRouters) {
  harness::ExperimentSpec spec = tinySpec("dimwar");
  spec.pointJobs = 64;  // tiny has 9 routers
  harness::Experiment exp(spec);
  EXPECT_EQ(exp.pointJobs(), 9u);
}

TEST(ParSim, MinChannelLatencyIsSurfaced) {
  harness::ExperimentSpec spec = tinySpec("dimwar");
  harness::Experiment exp(spec);
  // Satellite guard: the lookahead source. Tiny preset has 1-cycle terminal
  // channels and 4-cycle router channels; the min must reflect the former.
  EXPECT_EQ(exp.network().minChannelLatency(), 1u);
}

TEST(ParSim, MergeOrderIndependentOfThreadScheduling) {
  // Property: the barrier drain order is fixed by (dst shard, src shard,
  // FIFO), never by which worker reached the barrier first. If scheduling
  // leaked in, per-shard event counts would differ between two runs of the
  // identical sharded experiment.
  std::vector<std::uint64_t> refCounts;
  metrics::SteadyStateResult refResult;
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    harness::ExperimentSpec spec = tinySpec("omniwar");
    spec.pointJobs = 4;
    harness::Experiment exp(spec);
    ASSERT_NE(exp.parEngine(), nullptr);
    const metrics::SteadyStateResult result = exp.run();
    const std::vector<std::uint64_t> counts = exp.parEngine()->shardEventsProcessed();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_GT(exp.parEngine()->windowsRun(), 0u);
    if (run == 0) {
      refCounts = counts;
      refResult = result;
    } else {
      EXPECT_EQ(refCounts, counts);
      expectResultsIdentical(refResult, result);
    }
  }
}

}  // namespace
}  // namespace hxwar
