// Headline-claim regression tests: each test encodes one of the paper's
// qualitative results as an executable assertion, so a change that silently
// breaks the reproduction fails CI. These use reduced measurement budgets —
// EXPERIMENTS.md records the full-budget numbers.
#include <gtest/gtest.h>

#include "app/stencil.h"
#include "harness/experiment.h"

namespace hxwar {
namespace {

harness::ExperimentSpec quick(const std::string& algorithm, const std::string& pattern,
                              double load) {
  harness::ExperimentSpec spec = harness::scaleSpec("small");
  spec.routing = algorithm;
  spec.pattern = pattern;
  spec.injection.rate = load;
  spec.steady.maxWarmupWindows = 10;
  spec.steady.measureWindow = 2000;
  spec.steady.drainWindow = 5000;
  return spec;
}

metrics::SteadyStateResult run(const std::string& algorithm, const std::string& pattern,
                               double load) {
  harness::Experiment exp(quick(algorithm, pattern, load));
  return exp.run();
}

// Fig. 6a: under uniform random traffic every adaptive algorithm rides
// minimal paths; nobody saturates at 60% offered.
TEST(PaperClaims, Fig6a_UniformRandomIsEasyForAdaptives) {
  for (const char* algorithm : {"dor", "ugal", "closad", "dimwar", "omniwar"}) {
    const auto r = run(algorithm, "ur", 0.6);
    EXPECT_FALSE(r.saturated) << algorithm;
    EXPECT_NEAR(r.accepted, 0.6, 0.05) << algorithm;
  }
}

// Fig. 6b: minimal routing caps at the 1/K bisection floor on bit
// complement; the WARs sail past it by derouting.
TEST(PaperClaims, Fig6b_BitComplementMinimalFloor) {
  const auto dor = run("dor", "bc", 0.4);
  EXPECT_TRUE(dor.saturated);
  EXPECT_NEAR(dor.accepted, 0.25, 0.02);  // exactly 1/K
  for (const char* war : {"dimwar", "omniwar"}) {
    const auto r = run(war, "bc", 0.4);
    EXPECT_FALSE(r.saturated) << war;
    EXPECT_GT(r.avgDeroutes, 0.5) << war << " must deroute on BC";
  }
}

// Fig. 6d (the headline): the second-dimension bisection congestion is
// invisible to source-adaptive UGAL, which saturates; the incremental WARs
// deliver the same load at low, stable latency.
TEST(PaperClaims, Fig6d_SourceAdaptiveCannotSeeUrby) {
  const auto ugal = run("ugal", "urby", 0.4);
  EXPECT_TRUE(ugal.saturated);
  EXPECT_LT(ugal.accepted, 0.35);
  for (const char* war : {"dimwar", "omniwar"}) {
    const auto r = run(war, "urby", 0.4);
    EXPECT_FALSE(r.saturated) << war;
    EXPECT_LT(r.latencyMean, 150.0) << war;
  }
}

// Fig. 6f: DCR defeats dimension-ordered routing (DOR collapses, DimWAR
// capped) while OmniWAR's any-order traversal sustains the load — the
// "as much as 4x" result.
TEST(PaperClaims, Fig6f_OnlyOmniWarSurvivesDcr) {
  const auto dor = run("dor", "dcr", 0.4);
  EXPECT_TRUE(dor.saturated);
  EXPECT_LT(dor.accepted, 0.15);
  const auto dimwar = run("dimwar", "dcr", 0.4);
  EXPECT_TRUE(dimwar.saturated);
  const auto omniwar = run("omniwar", "dcr", 0.4);
  EXPECT_FALSE(omniwar.saturated);
  EXPECT_GT(omniwar.accepted, 1.8 * dimwar.accepted) << "OmniWAR's DCR margin";
}

// Fig. 6e: S2 leaves spare bandwidth that only HyperX-aware algorithms use.
TEST(PaperClaims, Fig6e_Swap2SpareBandwidth) {
  const auto dor = run("dor", "s2", 0.7);
  EXPECT_TRUE(dor.saturated);  // direct links cap at 50%
  for (const char* war : {"dimwar", "omniwar"}) {
    const auto r = run(war, "s2", 0.7);
    EXPECT_FALSE(r.saturated) << war;
  }
}

// Fig. 8b: halo exchanges favor the WARs over oblivious and source-adaptive
// routing; Fig. 8a: collectives are fine for everyone except VAL.
TEST(PaperClaims, Fig8_StencilOrdering) {
  auto stencilTime = [](const char* algorithm, app::StencilMode mode) {
    harness::ExperimentSpec spec = harness::scaleSpec("small");
    spec.routing = algorithm;
    harness::Experiment exp(spec);
    app::StencilConfig sc;
    sc.grid = {8, 8, 4};
    sc.haloBytesPerNode = 48 * 1024;
    sc.mode = mode;
    app::StencilApp app(exp.network(), sc);
    return app.run().makespan;
  };
  // Exchange: OmniWAR beats DOR and VAL.
  const auto exDor = stencilTime("dor", app::StencilMode::kExchangeOnly);
  const auto exVal = stencilTime("val", app::StencilMode::kExchangeOnly);
  const auto exOmni = stencilTime("omniwar", app::StencilMode::kExchangeOnly);
  EXPECT_LT(exOmni, exDor);
  EXPECT_LT(exOmni, exVal);
  // Collective: VAL pays its 2x latency tax, DimWAR matches DOR.
  const auto coDor = stencilTime("dor", app::StencilMode::kCollectiveOnly);
  const auto coVal = stencilTime("val", app::StencilMode::kCollectiveOnly);
  const auto coDim = stencilTime("dimwar", app::StencilMode::kCollectiveOnly);
  EXPECT_GT(coVal, coDor * 3 / 2);
  EXPECT_NEAR(static_cast<double>(coDim), static_cast<double>(coDor), coDor * 0.1);
}

// §6.1 methodology: all algorithms get 8 VCs; those needing fewer spread
// their classes across the spares. Verify the class counts of Table 1.
TEST(PaperClaims, Table1_ClassCounts) {
  topo::HyperX topo({{8, 8, 8}, 8});
  EXPECT_EQ(routing::makeHyperXRouting("dor", topo)->numClasses(), 1u);
  EXPECT_EQ(routing::makeHyperXRouting("val", topo)->numClasses(), 2u);
  EXPECT_EQ(routing::makeHyperXRouting("ugal", topo)->numClasses(), 2u);
  EXPECT_EQ(routing::makeHyperXRouting("closad", topo)->numClasses(), 2u);
  EXPECT_EQ(routing::makeHyperXRouting("dimwar", topo)->numClasses(), 2u);
  EXPECT_EQ(routing::makeHyperXRouting("omniwar", topo)->numClasses(), 6u);  // N+M, M=N=3
}

}  // namespace
}  // namespace hxwar
