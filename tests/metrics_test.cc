#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "metrics/stats.h"

namespace hxwar::metrics {
namespace {

TEST(StreamingStats, BasicMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStats, SingleSample) {
  StreamingStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(StreamingStats, ResetClears) {
  StreamingStats s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 10.0);
}

TEST(SampleStats, Percentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(0.99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(SampleStats, InterleavedAddAndQuery) {
  SampleStats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 5.0);
  s.add(1.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 5.0);
  EXPECT_EQ(s.count(), 3u);
}

// Steady-state controller end-to-end on a tiny network.
TEST(SteadyState, LowLoadIsStableAndAccurate) {
  harness::ExperimentSpec spec = harness::scaleSpec("tiny");
  spec.routing = "dimwar";
  spec.pattern = "ur";
  spec.injection.rate = 0.2;
  harness::Experiment exp(spec);
  const auto r = exp.run();
  EXPECT_FALSE(r.saturated);
  EXPECT_NEAR(r.accepted, 0.2, 0.04);
  EXPECT_GT(r.latencyMean, 0.0);
  EXPECT_GE(r.latencyP99, r.latencyP50);
  EXPECT_GE(r.latencyP50, r.latencyMin);
  EXPECT_GT(r.packetsMeasured, 100u);
}

TEST(SteadyState, OverloadIsDeclaredSaturated) {
  harness::ExperimentSpec spec = harness::scaleSpec("tiny");
  spec.routing = "dor";
  spec.pattern = "bc";  // DOR caps well below 0.9 on bit complement
  spec.injection.rate = 0.9;
  spec.steady.maxWarmupWindows = 10;
  harness::Experiment exp(spec);
  const auto r = exp.run();
  EXPECT_TRUE(r.saturated);
  EXPECT_LT(r.accepted, 0.85);
}

TEST(SteadyState, AcceptedTracksOfferedWhenStable) {
  for (double load : {0.1, 0.3}) {
    harness::ExperimentSpec spec = harness::scaleSpec("tiny");
    spec.routing = "omniwar";
    spec.injection.rate = load;
    harness::Experiment exp(spec);
    const auto r = exp.run();
    EXPECT_FALSE(r.saturated) << "load " << load;
    EXPECT_NEAR(r.accepted, load, 0.05) << "load " << load;
  }
}

TEST(SteadyState, LatencyGrowsWithLoad) {
  double lat[2] = {0, 0};
  int i = 0;
  for (double load : {0.1, 0.5}) {
    harness::ExperimentSpec spec = harness::scaleSpec("tiny");
    spec.routing = "dimwar";
    spec.injection.rate = load;
    harness::Experiment exp(spec);
    lat[i++] = exp.run().latencyMean;
  }
  EXPECT_GT(lat[1], lat[0]);
}

TEST(SteadyState, FullyDeterministicAcrossRuns) {
  auto runOnce = [] {
    harness::ExperimentSpec spec = harness::scaleSpec("tiny");
    spec.routing = "omniwar";
    spec.pattern = "bc";
    spec.injection.rate = 0.3;
    spec.injection.seed = 33;
    spec.net.rngSeed = 34;
    harness::Experiment exp(spec);
    return exp.run();
  };
  const auto a = runOnce();
  const auto b = runOnce();
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_DOUBLE_EQ(a.accepted, b.accepted);
  EXPECT_DOUBLE_EQ(a.latencyMean, b.latencyMean);
  EXPECT_EQ(a.packetsMeasured, b.packetsMeasured);
  EXPECT_DOUBLE_EQ(a.avgDeroutes, b.avgDeroutes);
}

TEST(SteadyState, SeedChangesResultsSlightly) {
  auto runWithSeed = [](std::uint64_t seed) {
    harness::ExperimentSpec spec = harness::scaleSpec("tiny");
    spec.routing = "dimwar";
    spec.injection.rate = 0.3;
    spec.injection.seed = seed;
    harness::Experiment exp(spec);
    return exp.run();
  };
  const auto a = runWithSeed(1);
  const auto b = runWithSeed(2);
  // Different seeds: different sample sets, statistically similar results.
  EXPECT_NE(a.latencyMean, b.latencyMean);
  EXPECT_NEAR(a.accepted, b.accepted, 0.05);
  EXPECT_NEAR(a.latencyMean, b.latencyMean, a.latencyMean * 0.3);
}

TEST(SteadyState, ZeroLoadEdgeBehaviour) {
  harness::ExperimentSpec spec = harness::scaleSpec("tiny");
  spec.routing = "dor";
  spec.injection.rate = 0.01;  // near-zero load: must stabilize fast
  harness::Experiment exp(spec);
  const auto r = exp.run();
  EXPECT_FALSE(r.saturated);
  EXPECT_NEAR(r.accepted, 0.01, 0.01);
  EXPECT_GT(r.latencyMean, 0.0);
}

TEST(Harness, LoadGridGeneration) {
  const auto grid = harness::loadGrid(0.1, 0.5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.1);
  EXPECT_DOUBLE_EQ(grid.back(), 0.5);
}

TEST(Harness, SweepStopsAfterSaturation) {
  harness::ExperimentSpec spec = harness::scaleSpec("tiny");
  spec.routing = "dor";
  spec.pattern = "bc";
  spec.steady.maxWarmupWindows = 8;
  const auto points = harness::loadLatencySweep(spec, harness::loadGrid(0.2, 1.0));
  ASSERT_GE(points.size(), 2u);
  EXPECT_LT(points.size(), 5u);  // saturates early, sweep stops
  EXPECT_TRUE(points.back().result.saturated);
}

// Pins every knob of each preset: tiny drives most unit tests, small the
// benches, paper the paper-scale gates. A preset change must edit this text.
TEST(Harness, ScalePresetsArePinned) {
  EXPECT_EQ(harness::scaleSpec("tiny").serialize(), R"(topology = hyperx
routing = dimwar
pattern = ur
pattern-seed = 7
channel-latency = 4
terminal-latency = 1
net-seed = 1
vcs = 8
input-buffer = 12
output-queue = 4
xbar-latency = 2
speedup = 2
bias = 4
vct = true
arbiter = age
load = 0.1
min-flits = 1
max-flits = 16
seed = 7
warmup-window = 500
warmup-windows = 30
stable-windows = 2
stability-tol = 0.05
backlog-growth-tol = 1.1
accepted-tol = 0.93
measure-window = 2000
drain-window = 10000
min-measure-packets = 100
terminals = 2
ugal-bias = 1
widths = 3,3
)");
  EXPECT_EQ(harness::scaleSpec("small").serialize(), R"(topology = hyperx
routing = dimwar
pattern = ur
pattern-seed = 7
channel-latency = 8
terminal-latency = 1
net-seed = 1
vcs = 8
input-buffer = 48
output-queue = 32
xbar-latency = 4
speedup = 4
bias = 4
vct = true
arbiter = age
load = 0.1
min-flits = 1
max-flits = 16
seed = 7
warmup-window = 1000
warmup-windows = 18
stable-windows = 2
stability-tol = 0.05
backlog-growth-tol = 1.1
accepted-tol = 0.93
measure-window = 3000
drain-window = 8000
min-measure-packets = 100
terminals = 4
ugal-bias = 1
widths = 4,4,4
)");
  EXPECT_EQ(harness::scaleSpec("paper").serialize(), R"(topology = hyperx
routing = dimwar
pattern = ur
pattern-seed = 7
channel-latency = 50
terminal-latency = 5
net-seed = 1
vcs = 8
input-buffer = 160
output-queue = 32
xbar-latency = 50
speedup = 4
bias = 4
vct = true
arbiter = age
load = 0.1
min-flits = 1
max-flits = 16
seed = 7
warmup-window = 5000
warmup-windows = 60
stable-windows = 2
stability-tol = 0.05
backlog-growth-tol = 1.1
accepted-tol = 0.93
measure-window = 20000
drain-window = 100000
min-measure-packets = 100
terminals = 8
ugal-bias = 1
widths = 8,8,8
)");
}

}  // namespace
}  // namespace hxwar::metrics
