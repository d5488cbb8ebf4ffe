// Shared plumbing for the figure-regeneration benches: common flags, the
// canonical algorithm list, and the load-latency printer that mirrors the
// rows/series of the paper's plots.
#pragma once

#include <string>
#include <vector>

#include "common/flags.h"
#include "harness/experiment.h"
#include "harness/sweep_runner.h"

namespace hxwar::bench {

struct BenchOptions {
  // The --scale preset with every flag applied: --topology/--routing and
  // construction params select any registered family, and --vcs,
  // --measure-window etc. reach every bench. Benches copy it per run and set
  // routing, pattern and params.
  harness::ExperimentSpec spec;
  std::vector<std::string> algorithms;  // canonical registry order
  std::vector<double> loads;
  std::uint64_t seed = 7;
  std::string scale = "small";
  std::string csvPath;                  // --csv=<file>: machine-readable copy
  // --jobs=N: worker threads for sweep points (default: hardware
  // concurrency; 1 = exact serial path). Results are bit-identical for any
  // value — see the determinism contract in harness/sweep_runner.h.
  unsigned jobs = 1;
  // --point-jobs=N: shards *inside* each point (conservative parallel
  // engine); rides on spec.pointJobs and composes with --jobs. Results are
  // bit-identical for any value.
  unsigned pointJobs = 1;
  // --perf-json=<file>: per-point perf telemetry trajectory (empty disables).
  std::string perfJsonPath = "BENCH_sweep.json";
};

// Parses --scale, --algorithms, --loads, --seed, --csv, --jobs, --perf-json,
// and every ExperimentSpec flag (see ExperimentSpec::applyFlags).
BenchOptions parseBenchOptions(int argc, char** argv, std::vector<double> defaultLoads);

// Benches that drive time through exp.sim()/exp.network() themselves run on
// one simulator; intra-point sharding exists only inside Experiment::run().
// Returns false, after saying so on stderr, when --point-jobs asks for more.
bool requireSerialPoints(const BenchOptions& opts);

// Prints the figure banner: what the paper shows, what we run.
void printHeader(const std::string& figure, const std::string& description,
                 const BenchOptions& opts);

// Runs the load-latency experiment of one synthetic pattern for every
// algorithm (sweep points run on `opts.jobs` threads) and prints the series
// (Fig. 6a-f format). Also emits per-point perf telemetry into the CSV and
// the --perf-json trajectory file.
void runLoadLatencyFigure(const std::string& figure, const std::string& description,
                          const std::string& pattern, BenchOptions opts);

}  // namespace hxwar::bench
