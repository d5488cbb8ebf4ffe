// Tests for the unified ExperimentSpec layer: end-to-end steady state on all
// five topology families, config-file loading (dragonfly_ugal.cfg), serialize
// round-trips, strict u32-list flag validation, and jobs=1 vs jobs=4
// bit-identity off-HyperX.
#include <gtest/gtest.h>

#include "common/flags.h"
#include "harness/experiment.h"
#include "harness/spec.h"
#include "harness/sweep_runner.h"

namespace hxwar::harness {
namespace {

#ifndef HXWAR_SOURCE_DIR
#define HXWAR_SOURCE_DIR "."
#endif

// Small steady-state settings so five family runs stay in unit-test budget.
void shrinkSteady(ExperimentSpec& spec) {
  spec.steady.warmupWindow = 500;
  spec.steady.maxWarmupWindows = 10;
  spec.steady.measureWindow = 1000;
  spec.steady.drainWindow = 3000;
  spec.steady.minMeasurePackets = 10;
  // Tiny networks have high per-window variance; loosen the stability
  // detector so low load doesn't misread as saturation.
  spec.steady.stabilityTol = 0.25;
  spec.steady.acceptedTol = 0.85;
}

ExperimentSpec tinyFamilySpec(const std::string& topology,
                              std::initializer_list<std::pair<const char*, const char*>> params) {
  ExperimentSpec spec;
  spec.topology = topology;
  for (const auto& [key, value] : params) spec.params[key] = value;
  spec.injection.rate = 0.1;
  shrinkSteady(spec);
  return spec;
}

TEST(ExperimentSpec, SteadyStateRunsOnEveryFamily) {
  const std::vector<ExperimentSpec> specs = {
      tinyFamilySpec("hyperx", {{"widths", "3,3"}, {"terminals", "2"}}),
      tinyFamilySpec("dragonfly", {{"df-p", "2"}, {"df-a", "4"}, {"df-h", "2"}}),
      tinyFamilySpec("fattree", {{"ft-down", "4,4"}, {"ft-up", "2"}}),
      tinyFamilySpec("slimfly", {{"sf-q", "5"}}),
      tinyFamilySpec("torus", {{"widths", "3,3"}, {"terminals", "2"}}),
  };
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.topology);
    // Through the unified sweep layer (derived per-point seeds), the same
    // path hxsim and the benches use.
    const auto r = runSweepPoint(spec, 0.1, 0).result;
    EXPECT_FALSE(r.saturated);
    EXPECT_GT(r.accepted, 0.0);
    EXPECT_GT(r.packetsMeasured, 0u);
    EXPECT_GT(r.latencyMean, 0.0);
  }
}

TEST(ExperimentSpec, DragonflyConfigFileLoadsAndRuns) {
  Flags flags;
  ASSERT_TRUE(flags.loadFile(std::string(HXWAR_SOURCE_DIR) + "/configs/dragonfly_ugal.cfg"));
  ExperimentSpec spec = ExperimentSpec::fromFlags(flags);
  EXPECT_EQ(spec.topology, "dragonfly");
  EXPECT_EQ(spec.routing, "ugal");
  EXPECT_EQ(spec.pattern, "ur");
  EXPECT_EQ(spec.params.at("df-p"), "4");
  EXPECT_EQ(spec.params.at("df-g"), "8");

  spec.injection.rate = 0.1;
  shrinkSteady(spec);
  Experiment exp(spec);
  EXPECT_EQ(exp.topology().numNodes(), 256u);
  const auto r = exp.run();
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.accepted, 0.0);
}

TEST(ExperimentSpec, SerializeRoundTripIsAFixpoint) {
  ExperimentSpec spec = tinyFamilySpec(
      "dragonfly", {{"df-p", "2"}, {"df-a", "4"}, {"df-h", "2"}, {"ugal-bias", "1.5"}});
  spec.routing = "ugal";
  spec.pattern = "rp";
  spec.patternSeed = 123;
  spec.net.channelLatencyRouter = 17;
  spec.injection.maxFlits = 9;

  const std::string text = spec.serialize();
  Flags flags;
  ASSERT_TRUE(flags.loadText(text));
  const ExperimentSpec back = ExperimentSpec::fromFlags(flags);
  EXPECT_EQ(back.topology, spec.topology);
  EXPECT_EQ(back.routing, spec.routing);
  EXPECT_EQ(back.pattern, spec.pattern);
  EXPECT_EQ(back.patternSeed, spec.patternSeed);
  EXPECT_EQ(back.params, spec.params);
  EXPECT_EQ(back.net.channelLatencyRouter, spec.net.channelLatencyRouter);
  EXPECT_EQ(back.injection.maxFlits, spec.injection.maxFlits);
  EXPECT_EQ(back.steady.warmupWindow, spec.steady.warmupWindow);
  // The serialized surface is a fixpoint: serializing the reload is identical.
  EXPECT_EQ(back.serialize(), text);
}

TEST(ExperimentSpec, FormatDoubleRoundTripsExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 1.5, 0.933333333333333337, 1e-9}) {
    EXPECT_EQ(std::stod(formatDouble(v)), v);
  }
}

void expectIdenticalSweeps(const ExperimentSpec& spec) {
  const std::vector<double> loads = {0.05, 0.1, 0.15};
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 4;
  const auto a = runLoadSweep(spec, loads, serial);
  const auto b = runLoadSweep(spec, loads, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].load, b[i].load);
    EXPECT_EQ(a[i].result.saturated, b[i].result.saturated);
    EXPECT_EQ(a[i].result.offered, b[i].result.offered);
    EXPECT_EQ(a[i].result.accepted, b[i].result.accepted);
    EXPECT_EQ(a[i].result.latencyMean, b[i].result.latencyMean);
    EXPECT_EQ(a[i].result.latencyP50, b[i].result.latencyP50);
    EXPECT_EQ(a[i].result.latencyP99, b[i].result.latencyP99);
    EXPECT_EQ(a[i].result.avgHops, b[i].result.avgHops);
    EXPECT_EQ(a[i].result.avgDeroutes, b[i].result.avgDeroutes);
    EXPECT_EQ(a[i].result.packetsMeasured, b[i].result.packetsMeasured);
  }
}

TEST(ExperimentSpec, ParallelSweepBitIdenticalOnDragonfly) {
  ExperimentSpec spec = tinyFamilySpec("dragonfly", {{"df-p", "2"}, {"df-a", "4"}, {"df-h", "2"}});
  spec.routing = "ugal";
  expectIdenticalSweeps(spec);
}

TEST(ExperimentSpec, ParallelSweepBitIdenticalOnTorus) {
  ExperimentSpec spec = tinyFamilySpec("torus", {{"widths", "4,4"}, {"terminals", "2"}});
  expectIdenticalSweeps(spec);
}

TEST(ExperimentSpec, SeededPatternWorksOffHyperX) {
  ExperimentSpec spec = tinyFamilySpec("torus", {{"widths", "3,3"}, {"terminals", "2"}});
  spec.pattern = "rp";
  spec.patternSeed = 11;
  Experiment exp(spec);
  const auto r = exp.run();
  EXPECT_GT(r.packetsMeasured, 0u);
}

TEST(FlagU32List, ParsesValidAndFallsBackOnMissing) {
  Flags flags;
  flags.set("widths", "4,8,16");
  EXPECT_EQ(flagU32List(flags, "widths", {1}), (std::vector<std::uint32_t>{4, 8, 16}));
  EXPECT_EQ(flagU32List(flags, "absent", {2, 3}), (std::vector<std::uint32_t>{2, 3}));
  flags.set("empty", "");
  EXPECT_EQ(flagU32List(flags, "empty", {5}), (std::vector<std::uint32_t>{5}));
}

TEST(FlagU32ListDeath, RejectsFractionalEntries) {
  Flags flags;
  flags.set("widths", "4.5,4");
  EXPECT_DEATH(flagU32List(flags, "widths", {}),
               "flag widths=4.5,4: entry '4.5' is not a non-negative integer");
}

TEST(FlagU32ListDeath, RejectsNegativeEntries) {
  Flags flags;
  flags.set("widths", "-3");
  EXPECT_DEATH(flagU32List(flags, "widths", {}),
               "flag widths=-3: entry '-3' is not a non-negative integer");
}

}  // namespace
}  // namespace hxwar::harness
