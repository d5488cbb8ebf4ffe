#include "bench_common.h"

#include <cstdio>
#include <memory>
#include <sstream>

#include "harness/csv.h"
#include "harness/parallel.h"
#include "harness/registry.h"
#include "harness/table.h"

namespace hxwar::bench {
namespace {

std::vector<std::string> splitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

BenchOptions parseBenchOptions(int argc, char** argv, std::vector<double> defaultLoads) {
  Flags flags;
  flags.parse(argc, argv);
  BenchOptions opts;
  opts.scale = flags.str("scale", "small");
  opts.seed = flags.u64("seed", 7);
  // The HyperX preset, then every flag — including --topology and family
  // construction params — on top of it.
  opts.spec = harness::scaleSpec(opts.scale);
  opts.spec.injection.seed = opts.seed;
  opts.spec.net.rngSeed = opts.seed + 1;
  opts.spec.applyFlags(flags);
  opts.loads = flags.f64List("loads", defaultLoads);
  opts.csvPath = flags.str("csv", "");
  opts.jobs = static_cast<unsigned>(flags.u64("jobs", harness::defaultJobs()));
  if (opts.jobs == 0) opts.jobs = 1;
  opts.perfJsonPath = flags.str("perf-json", "BENCH_sweep.json");
  opts.pointJobs = opts.spec.pointJobs;
  const std::string algos = flags.str("algorithms", "");
  opts.algorithms =
      algos.empty()
          ? harness::ExperimentRegistry::instance().benchRoutingNames(opts.spec.topology)
          : splitCsv(algos);
  return opts;
}

bool requireSerialPoints(const BenchOptions& opts) {
  if (opts.pointJobs <= 1) return true;
  std::fprintf(stderr, "--point-jobs applies to steady/sweep experiments only\n");
  return false;
}

void printHeader(const std::string& figure, const std::string& description,
                 const BenchOptions& opts) {
  std::printf("=== %s ===\n%s\n", figure.c_str(), description.c_str());
  const auto topo = harness::ExperimentRegistry::instance()
                        .topology(opts.spec.topology)
                        .build(opts.spec.paramFlags());
  // --jobs is deliberately absent: results are jobs-invariant, and keeping
  // the banner identical lets `diff` verify that end to end.
  std::printf("scale=%s topology=%s vcs=%u chLat=%llu seed=%llu\n\n", opts.scale.c_str(),
              topo->name().c_str(), opts.spec.net.router.numVcs,
              static_cast<unsigned long long>(opts.spec.net.channelLatencyRouter),
              static_cast<unsigned long long>(opts.seed));
}

void runLoadLatencyFigure(const std::string& figure, const std::string& description,
                          const std::string& pattern, BenchOptions opts) {
  printHeader(figure, description, opts);
  std::printf("pattern: %s — load vs. latency; each series stops at saturation "
              "(as in the paper's plots)\n\n", pattern.c_str());

  const std::vector<std::string> columns = {"algorithm", "offered",  "accepted",
                                            "lat_mean",  "lat_p50",  "lat_p99",
                                            "hops",      "deroutes", "state"};
  // The CSV carries the per-point perf telemetry too; the printed table stays
  // deterministic (telemetry wall times vary run to run).
  std::vector<std::string> csvColumns = columns;
  csvColumns.insert(csvColumns.end(), {"wall_s", "events", "events_per_s"});
  harness::Table table(columns);
  harness::CsvWriter csv(opts.csvPath, csvColumns);

  harness::SweepOptions sweepOpts;
  sweepOpts.jobs = opts.jobs;
  std::unique_ptr<harness::ThreadPool> pool;
  if (opts.jobs > 1) pool = std::make_unique<harness::ThreadPool>(opts.jobs);

  harness::SweepPerfLog perf;
  for (const auto& algorithm : opts.algorithms) {
    harness::ExperimentSpec spec = opts.spec;
    spec.routing = algorithm;
    spec.pattern = pattern;
    const auto points = harness::runLoadSweep(spec, opts.loads, sweepOpts, pool.get());
    perf.addAll(algorithm + "/" + pattern, points);
    for (const auto& p : points) {
      const auto& r = p.result;
      std::vector<std::string> row = {
          algorithm, harness::Table::pct(p.load), harness::Table::pct(r.accepted),
          r.saturated ? "-" : harness::Table::num(r.latencyMean, 1),
          r.saturated ? "-" : harness::Table::num(r.latencyP50, 1),
          r.saturated ? "-" : harness::Table::num(r.latencyP99, 1),
          harness::Table::num(r.avgHops, 2), harness::Table::num(r.avgDeroutes, 3),
          r.saturated ? "SATURATED" : "stable"};
      table.addRow(row);
      row.insert(row.end(), {harness::Table::num(p.wallSeconds, 4),
                             std::to_string(p.eventsProcessed),
                             harness::Table::num(p.eventsPerSec, 0)});
      csv.row(row);
    }
  }
  table.print();
  const double wall = perf.totalWallSeconds();
  std::printf("\n[perf] %zu points, %llu events, %.2fs point-wall total "
              "(%.2f Mev/s aggregate, jobs=%u)\n",
              perf.points(), static_cast<unsigned long long>(perf.totalEvents()), wall,
              wall > 0.0 ? static_cast<double>(perf.totalEvents()) / wall / 1e6 : 0.0,
              opts.jobs);
  if (!perf.writeJson(opts.perfJsonPath, figure, opts.scale, opts.jobs)) {
    std::fprintf(stderr, "warning: could not write %s\n", opts.perfJsonPath.c_str());
  }
  std::printf("\n");
}

}  // namespace hxwar::bench
