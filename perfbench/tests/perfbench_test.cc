// Self-tests of the Fig. 6 benchmark runner: the tracing seams must not
// perturb the simulation, the workloads must sit where they are designed to
// (stable or saturated), counting seams must be per lane, and every metric
// must be declared in BENCHMARK.json with a unit and a direction.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "core.h"
#include "harness/experiment.h"
#include "obs/json.h"
#include "tracing.h"

namespace perfbench {
namespace {

using hxwar::harness::Experiment;
using hxwar::harness::ExperimentSpec;
using hxwar::metrics::SteadyStateResult;

std::string outDir() {
  const std::string dir = "perfbench_test_out";
  std::filesystem::create_directories(dir);
  return dir;
}

// Exact equality on purpose: decorators must forward, not approximate.
void expectSameResult(const SteadyStateResult& a, const SteadyStateResult& b) {
  EXPECT_EQ(a.saturated, b.saturated);
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
  EXPECT_EQ(a.packetsMeasured, b.packetsMeasured);
  EXPECT_EQ(a.packetsDropped, b.packetsDropped);
  EXPECT_EQ(a.droppedShare, b.droppedShare);
  EXPECT_EQ(a.warmupCycles, b.warmupCycles);
  for (std::uint32_t k = 0; k < hxwar::obs::LogHistogram::kBuckets; ++k) {
    EXPECT_EQ(a.latencyHistogram.count(k), b.latencyHistogram.count(k));
  }
  ASSERT_EQ(a.hopLatency.size(), b.hopLatency.size());
  for (std::size_t h = 0; h < a.hopLatency.size(); ++h) {
    EXPECT_EQ(a.hopLatency[h].packets, b.hopLatency[h].packets);
    EXPECT_EQ(a.hopLatency[h].meanLatency, b.hopLatency[h].meanLatency);
  }
  EXPECT_EQ(a.routing.decisions, b.routing.decisions);
  EXPECT_EQ(a.routing.derouteGrants, b.routing.derouteGrants);
  EXPECT_EQ(a.routing.creditStalls, b.routing.creditStalls);
  EXPECT_EQ(a.routing.grantsByVc, b.routing.grantsByVc);
}

// Workload results are expensive at paper scale; compute each once.
const PlainRun& plainRun(const std::string& workload) {
  static std::map<std::string, PlainRun> cache;
  auto it = cache.find(workload);
  if (it == cache.end()) {
    it = cache.emplace(workload, runPlain(workloadSpec(workload, kDefaultSeed, outDir()), 1))
             .first;
  }
  return it->second;
}

std::string spanPath(const std::string& workload) {
  return outDir() + "/" + workload + ".spans.json";
}

const TracedRun& tracedRun(const std::string& workload) {
  static std::map<std::string, TracedRun> cache;
  auto it = cache.find(workload);
  if (it == cache.end()) {
    const std::string dir = outDir();
    it = cache.emplace(workload, runTraced(workloadSpec(workload, kDefaultSeed, dir),
                                           spanPath(workload), dir + "/" + workload + ".layers.txt"))
             .first;
  }
  return it->second;
}

hxwar::obs::JsonValue readJson(const char* path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  hxwar::obs::JsonValue v;
  std::string error;
  EXPECT_TRUE(hxwar::obs::parseJson(text.str(), v, error)) << path << ": " << error;
  return v;
}

TEST(Workloads, PointIsStableOrSaturatedAsDesigned) {
  for (const std::string& w : workloadNames()) {
    SCOPED_TRACE(w);
    const Values& sim = plainRun(w).sim;
    EXPECT_EQ(sim.at("sim_packets_dropped"), 0.0);
    if (w == "small-saturated") {
      EXPECT_EQ(sim.at("sim_saturated"), 1.0);
      EXPECT_LT(sim.at("sim_accepted"), 0.9);  // offered 1.0
    } else {
      EXPECT_EQ(sim.at("sim_saturated"), 0.0);
      EXPECT_GE(sim.at("metrics.packets_measured"), 1000.0);
    }
  }
}

TEST(Workloads, ShardedEqualsSerial) {
  EXPECT_EQ(plainRun("paper-ur").sim, plainRun("paper-ur-pj2").sim);
}

TEST(Decorators, LeaveSteadyStateResultBitIdentical) {
  for (const std::string w : {"small-saturated", "small-faulted-observed", "paper-ur-pj2"}) {
    SCOPED_TRACE(w);
    const ExperimentSpec spec = workloadSpec(w, kDefaultSeed, outDir());
    Experiment plain(spec);
    const SteadyStateResult a = plain.run();
    Tallies::instance().reset();
    Experiment traced(tracedSpec(spec));
    // One decorator per lane: the harness builds routing and patterns per shard.
    EXPECT_EQ(Tallies::instance().routeInstances(), traced.pointJobs());
    EXPECT_EQ(Tallies::instance().destInstances(), traced.network().numLanes());
    const SteadyStateResult b = traced.run();
    expectSameResult(a, b);
    EXPECT_GT(Tallies::instance().routeTotal().calls, 0u);
    EXPECT_GT(Tallies::instance().destTotal().calls, 0u);
  }
}

TEST(Tracing, TracedRunEqualsUntraced) {
  for (const std::string& w : workloadNames()) {
    SCOPED_TRACE(w);
    EXPECT_EQ(tracedRun(w).sim, plainRun(w).sim);
  }
}

TEST(Tracing, GrantsEqualOnSerialAndSharded) {
  const Values& serial = tracedRun("paper-ur").layers;
  const Values& sharded = tracedRun("paper-ur-pj2").layers;
  EXPECT_GT(serial.at("routing.grants"), 0.0);
  EXPECT_EQ(serial.at("routing.grants"), sharded.at("routing.grants"));
  EXPECT_EQ(serial.at("routing.route_calls"), sharded.at("routing.route_calls"));
  EXPECT_EQ(serial.at("traffic.dest_calls"), sharded.at("traffic.dest_calls"));
}

// The self-time rows add up to the traced wall time by construction:
// selfTimeByLayer charges every span's time to exactly one row. What can be
// wrong is the spans, so this reads the span file back and checks that each
// child lies inside its parent, that siblings do not overlap, and that no
// span's children plus its per-call aggregates ("<layer>:wall_s") exceed it.
// Those make every row a non-negative share of the traced wall time.
TEST(Tracing, SpansNestAndSelfTimesAreNonNegative) {
  for (const std::string w : {"small-faulted-observed", "paper-ur-pj2"}) {
    SCOPED_TRACE(w);
    const TracedRun& run = tracedRun(w);
    const hxwar::obs::JsonValue trace = readJson(spanPath(w).c_str());
    const std::vector<hxwar::obs::JsonValue>& spans = trace.get("traceEvents")->array;
    ASSERT_FALSE(spans.empty());
    constexpr double kEpsUs = 0.01;  // ts and dur are printed in microseconds to 1 ns
    std::vector<double> inside(spans.size(), 0.0);    // children plus aggregates, us
    std::vector<double> lastEnd(spans.size(), -1.0);  // end of the previous child, us
    double runUs = -1.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const hxwar::obs::JsonValue& s = spans[i];
      const hxwar::obs::JsonValue& args = *s.get("args");
      const std::string name = s.get("name")->string;
      const double ts = s.get("ts")->number;
      const double dur = s.get("dur")->number;
      EXPECT_EQ(args.get("id")->number, static_cast<double>(i));
      EXPECT_GE(dur, 0.0) << name;
      for (const auto& [key, value] : args.object) {
        if (key.size() > 7 && key.compare(key.size() - 7, 7, ":wall_s") == 0) {
          EXPECT_GE(value.number, 0.0) << name << " " << key;
          inside[i] += value.number * 1e6;
        }
      }
      if (name == "run") runUs = dur;
      const int parent = static_cast<int>(args.get("parent")->number);
      if (parent < 0) continue;
      ASSERT_LT(parent, static_cast<int>(i)) << name;
      const auto p = static_cast<std::size_t>(parent);
      const double pts = spans[p].get("ts")->number;
      EXPECT_GE(ts + kEpsUs, pts) << name << " starts before its parent";
      EXPECT_LE(ts + dur, pts + spans[p].get("dur")->number + kEpsUs)
          << name << " ends after its parent";
      EXPECT_GE(ts + kEpsUs, lastEnd[p]) << name << " overlaps its previous sibling";
      lastEnd[p] = ts + dur;
      inside[p] += dur;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double dur = spans[i].get("dur")->number;
      EXPECT_LE(inside[i], dur * (1.0 + 1e-9) + kEpsUs * 64)
          << spans[i].get("name")->string << ": children and aggregates exceed the span";
    }
    EXPECT_NEAR(runUs * 1e-6, run.wallSeconds, 1e-8);
    double total = 0.0;
    for (const auto& [layer, s] : run.selfSeconds) {
      EXPECT_GE(s, -1e-9) << layer;
      total += s;
    }
    EXPECT_NEAR(total, run.wallSeconds, 1e-9 * run.wallSeconds + 1e-12);
  }
}

TEST(Metrics, EveryNameIsDeclaredWithUnitAndDirection) {
  const hxwar::obs::JsonValue bench = readJson(PERFBENCH_JSON);
  const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> declared;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const hxwar::obs::JsonValue* list = bench.get(section);
    ASSERT_NE(list, nullptr) << section;
    for (const hxwar::obs::JsonValue& m : list->array) {
      const std::string n = m.get("name")->string;
      EXPECT_TRUE(std::regex_match(n, name)) << n;
      EXPECT_TRUE(std::regex_match(m.get("unit")->string, unit)) << n;
      const std::string better = m.get("better")->string;
      EXPECT_TRUE(better == "lower" || better == "higher") << n;
      EXPECT_TRUE(declared.insert(n).second) << "duplicate " << n;
      if (std::string(section) == "end_to_end") {
        EXPECT_GT(m.get("bound")->number, 0.0) << n;
        EXPECT_LE(m.get("bound")->number, 0.25) << n;
      }
    }
  }
  // Per-layer metrics from the traced pass, plus the three run.py derives
  // across processes; run.py itself rejects end-to-end names not declared.
  std::set<std::string> emitted = {"sim.ns_per_event", "trace.overhead", "obs.overhead"};
  for (const auto& [n, v] : tracedRun("small-faulted-observed").layers) emitted.insert(n);
  std::set<std::string> perLayer;
  for (const hxwar::obs::JsonValue& m : bench.get("per_layer")->array) {
    perLayer.insert(m.get("name")->string);
  }
  EXPECT_EQ(emitted, perLayer);
}

TEST(Metrics, PinnedValuesCoverDefaultSeedRuns) {
  const hxwar::obs::JsonValue expected = readJson(PERFBENCH_EXPECTED);
  EXPECT_EQ(expected.get("seed")->number, static_cast<double>(kDefaultSeed));
  for (const std::string w : {"paper-ur", "small-saturated", "small-faulted-observed"}) {
    SCOPED_TRACE(w);
    const hxwar::obs::JsonValue* pinned = expected.get("workloads")->get(w);
    ASSERT_NE(pinned, nullptr);
    for (const auto& [key, value] : pinned->object) {
      EXPECT_EQ(value.number, plainRun(w).sim.at(key)) << key;
    }
  }
}

}  // namespace
}  // namespace perfbench
