// hxsim — config-driven simulation runner (the SuperSim-style front end).
//
// Builds any registered topology/routing from flags or a config file and
// runs one of three experiments:
//
//   --experiment=steady    one steady-state measurement at --load
//   --experiment=sweep     load-latency sweep over --loads (--jobs=N runs
//                          points concurrently; output is jobs-invariant)
//   --experiment=stencil   27-pt stencil app (--halo-kb, --iterations, --mode)
//
// --point-jobs=N shards each point's network across N worker threads via the
// conservative parallel engine (sim/par, DESIGN.md §12); composes with
// --jobs. Every output surface except --perf-json wall-clock telemetry is
// bit-identical for any --point-jobs value.
//
// `hxsim --list` prints the registered topologies, routing algorithms, and
// traffic patterns and exits.
//
// Fault injection (steady/sweep): --fault-rate + --fault-seed draw random
// link failures, --fault-links=r:p,... / --fault-routers=r,... name them
// explicitly, --fault-at/--fault-until make them transient, and
// --fault-policy={abort,drop,retry,escape} selects the dead-end ladder
// (faulted runs add `dropped`/`stretch` columns). escape/drop/retry tolerate
// partitioned fault sets, reporting unreachable pairs as metrics. A point
// that still aborts is retried once and then reported as a FAILED row (crash
// isolation) rather than killing the sweep. --vc-policy={static,dateline,
// escape} selects the VC/deadlock-avoidance scheme per algorithm. See
// fault/fault_model.h.
//
// steady/sweep run through the shared harness::runLoadSweep engine for every
// topology family, with the standard determinism contract: each point's seeds
// derive from (--seed, point index), so the table and --csv output are
// byte-identical for any --jobs value. --perf-json captures per-point wall
// time and event throughput.
//
// Observability (steady/sweep): --trace-out=FILE writes a Chrome-trace JSON
// of sampled packet lifecycles (open in ui.perfetto.dev; --trace-sample=N
// traces 1-in-N packets by id), --metrics-json=FILE dumps latency histograms,
// tail percentiles, and per-dimension routing-decision counters, and
// --sample-interval=T snapshots network load every T cycles (with a stall
// watchdog after --stall-window quiet cycles). --window-ticks=T attaches the
// windowed flight recorder (per-window flow/routing deltas, link/VC heatmaps,
// a per-window log2 latency histogram, fault annotations; DESIGN.md §14) and
// --timeline-out=FILE streams its windows as JSONL (implies a 1000-tick
// window when --window-ticks is unset); a hotspot/imbalance summary rides in
// --metrics-json and below the sweep table. All observability output is
// --jobs-invariant, and the timeline JSONL is --point-jobs-invariant too;
// see obs/obs.h.
//
// Configuration can come from a file (`hxsim --config my.cfg`) with
// `key = value` lines; command-line flags override file values. See
// harness/builder.h for the topology/router keys.
//
// Examples:
//   hxsim --experiment=sweep --routing=omniwar --pattern=bc --loads=0.1,0.3,0.45
//   hxsim --topology=dragonfly --routing=ugal --experiment=sweep --jobs=4
//   hxsim --experiment=stencil --routing=dimwar --halo-kb=64 --iterations=2
//   hxsim --config experiments/urby.cfg --csv=out.csv
#include <algorithm>
#include <cstdio>

#include "app/stencil.h"
#include "common/flags.h"
#include "harness/builder.h"
#include "harness/csv.h"
#include "harness/obs_io.h"
#include "harness/registry.h"
#include "harness/spec.h"
#include "harness/sweep_runner.h"
#include "harness/table.h"

namespace {

using namespace hxwar;

std::vector<std::string> resultRow(const harness::SweepPoint& p, bool faulted) {
  using harness::Table;
  const metrics::SteadyStateResult& r = p.result;
  if (p.failed()) {
    // Crash isolation: the point raised hxwar::Error twice with the same
    // seeds; keep it as a structured row instead of dropping the whole sweep.
    std::vector<std::string> row = {Table::pct(p.load), "-", "-", "-", "-",
                                    "-",               "-", "-", "FAILED"};
    if (faulted) {
      row.push_back("-");
      row.push_back("-");
    }
    return row;
  }
  std::vector<std::string> row = {Table::pct(p.load),
                                  Table::pct(r.accepted),
                                  r.saturated ? "-" : Table::num(r.latencyMean, 1),
                                  r.saturated ? "-" : Table::num(r.latencyP90, 1),
                                  r.saturated ? "-" : Table::num(r.latencyP99, 1),
                                  r.saturated ? "-" : Table::num(r.latencyP999, 1),
                                  Table::num(r.avgHops, 2),
                                  Table::num(r.avgDeroutes, 3),
                                  r.saturated ? "SATURATED" : "stable"};
  if (faulted) {
    row.push_back(Table::num(r.droppedShare, 4));
    row.push_back(Table::num(r.avgStretch, 3));
  }
  return row;
}

// --list: the registered experiment vocabulary, then exit.
int listRegistry() {
  auto& registry = harness::ExperimentRegistry::instance();
  std::printf("topologies (with routing algorithms):\n");
  for (const auto& topology : registry.topologyNames()) {
    std::printf("  %-10s:", topology.c_str());
    for (const auto& routing : registry.routingNames(topology)) {
      std::printf(" %s", routing.c_str());
    }
    std::printf("\n");
  }
  std::printf("patterns:\n");
  for (const auto& pattern : registry.patternNames()) {
    std::printf("  %-6s %s\n", pattern.c_str(),
                registry.pattern(pattern).description.c_str());
  }
  return 0;
}

int runSteadyOrSweep(const Flags& flags, bool sweep) {
  const harness::ExperimentSpec spec = harness::ExperimentSpec::fromFlags(flags);
  const auto loads = sweep ? flags.f64List("loads", {0.2, 0.4, 0.6, 0.8})
                           : std::vector<double>{flags.f64("load", 0.3)};
  harness::SweepOptions sweepOpts;
  sweepOpts.jobs = static_cast<unsigned>(flags.u64("jobs", 1));
  sweepOpts.stopAtSaturation = sweep;  // cut after two consecutive saturated loads
  const auto points = harness::runLoadSweep(spec, loads, sweepOpts);

  // No wall-clock columns: the table and CSV stay byte-identical for any
  // --jobs value. Telemetry goes to --perf-json instead. Resilience columns
  // appear only on faulted runs, keeping fault-free output unchanged.
  std::vector<std::string> columns = {"offered",  "accepted", "lat_mean",
                                      "lat_p90",  "lat_p99",  "lat_p999",
                                      "hops",     "deroutes", "state"};
  const bool faulted = spec.fault.active();
  if (faulted) {
    columns.push_back("dropped");
    columns.push_back("stretch");
  }
  harness::Table table(columns);
  harness::CsvWriter csv(flags.str("csv", ""), columns);
  for (const auto& p : points) {
    const auto row = resultRow(p, faulted);
    table.addRow(row);
    csv.row(row);
    if (p.failed()) {
      std::fprintf(stderr, "point %zu (load %.3f) failed: %s\n", p.index, p.load,
                   p.message.c_str());
    }
  }
  table.print();

  // Flight-recorder summary: one line per recorded point with its window
  // count, peak per-window deroutes/stalls, the hottest link, and — when
  // sharded — the worst shard load ratio. Derived from the same deterministic
  // windows as --timeline-out, so this block is jobs- and point-jobs-
  // invariant aside from shard_balance ratios existing only when sharded.
  if (spec.obs.windowed()) {
    for (const auto& p : points) {
      if (p.windows.empty()) continue;
      std::uint64_t peakDeroutes = 0, peakStalls = 0;
      std::uint64_t hotFlits = 0;
      RouterId hotRouter = kRouterInvalid;
      PortId hotPort = kPortInvalid;
      for (const auto& w : p.windows) {
        peakDeroutes = std::max(peakDeroutes, w.deroutesTaken);
        peakStalls = std::max(peakStalls, w.creditStalls);
        if (!w.hotLinks.empty() && w.hotLinks[0].flits > hotFlits) {
          hotFlits = w.hotLinks[0].flits;
          hotRouter = w.hotLinks[0].router;
          hotPort = w.hotLinks[0].port;
        }
      }
      double maxRatio = 0.0;
      for (const auto& sr : p.shardWindows) maxRatio = std::max(maxRatio, sr.loadRatio);
      std::printf("timeline point %zu: %zu windows x %llu ticks, peak deroutes/win %llu,"
                  " peak credit stalls/win %llu",
                  p.index, p.windows.size(),
                  static_cast<unsigned long long>(spec.obs.windowTicks),
                  static_cast<unsigned long long>(peakDeroutes),
                  static_cast<unsigned long long>(peakStalls));
      if (hotRouter != kRouterInvalid) {
        std::printf(", hottest link r%u:p%u (%llu flits/win)", hotRouter, hotPort,
                    static_cast<unsigned long long>(hotFlits));
      }
      if (!p.shardWindows.empty()) {
        std::printf(", max shard load ratio %.3f", maxRatio);
      }
      std::printf("\n");
    }
  }

  harness::SweepPerfLog perf;
  const std::string algo = spec.routing.empty() ? "default" : spec.routing;
  perf.addAll(algo + "/" + spec.pattern, points);
  const std::string perfJson = flags.str("perf-json", "");
  if (!perf.writeJson(perfJson, "hxsim", spec.topology, sweepOpts.jobs)) {
    std::fprintf(stderr, "warning: could not write %s\n", perfJson.c_str());
  }

  // Observability outputs, assembled in point order (jobs-invariant).
  harness::writeTraceJson(spec.obs.traceOut, spec, points);
  harness::writeMetricsJson(spec.obs.metricsJson, spec, points);
  harness::writeTimelineJsonl(spec.obs.timelineOut, spec, points);
  return 0;
}

int runStencil(const Flags& flags) {
  // Application workloads drive a single-simulator NetworkBundle directly;
  // intra-point sharding only exists on the steady/sweep Experiment path.
  if (flags.u64("point-jobs", 1) > 1) {
    std::fprintf(stderr, "--point-jobs applies to steady/sweep experiments only\n");
    return 1;
  }
  auto bundle = harness::NetworkBundle::fromFlags(flags);
  app::StencilConfig sc;
  const auto gridList = flags.f64List("grid", {});
  if (gridList.size() == 3) {
    sc.grid = {static_cast<std::uint32_t>(gridList[0]),
               static_cast<std::uint32_t>(gridList[1]),
               static_cast<std::uint32_t>(gridList[2])};
  } else {
    // Default: roughly cubical grid over all nodes.
    const std::uint32_t n = bundle->network().numNodes();
    std::uint32_t gx = 1;
    while ((gx + 1) * (gx + 1) * (gx + 1) <= n) ++gx;
    sc.grid = {gx, gx, std::max(1u, n / (gx * gx))};
  }
  sc.haloBytesPerNode = flags.u64("halo-kb", 48) * 1024;
  sc.iterations = static_cast<std::uint32_t>(flags.u64("iterations", 1));
  sc.mode = app::stencilModeFromString(flags.str("mode", "full"));
  sc.randomPlacement = !flags.b("linear-placement", false);
  sc.seed = flags.u64("seed", 21);
  app::StencilApp stencil(bundle->network(), sc);
  const auto r = stencil.run();
  harness::Table table({"metric", "value"});
  table.addRow({"makespan (cycles)", std::to_string(r.makespan)});
  table.addRow({"messages", std::to_string(r.messages)});
  table.addRow({"bytes", std::to_string(r.bytes)});
  table.addRow({"exchange proc-cycles", std::to_string(r.exchangeCycles)});
  table.addRow({"collective proc-cycles", std::to_string(r.collectiveCycles)});
  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!flags.parse(argc, argv)) return 1;
  if (flags.has("config") && !flags.loadFile(flags.str("config", ""))) return 1;
  if (flags.b("list", false)) return listRegistry();

  {
    auto bundle = harness::NetworkBundle::fromFlags(flags);
    std::printf("hxsim: %s — %u routers, %u nodes\n", bundle->description().c_str(),
                bundle->network().numRouters(), bundle->network().numNodes());
  }

  const std::string experiment = flags.str("experiment", "steady");
  if (experiment == "steady") return runSteadyOrSweep(flags, false);
  if (experiment == "sweep") return runSteadyOrSweep(flags, true);
  if (experiment == "stencil") return runStencil(flags);
  std::fprintf(stderr, "unknown experiment: %s (steady|sweep|stencil)\n", experiment.c_str());
  return 1;
}
