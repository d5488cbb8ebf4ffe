// Fig. 6 benchmark runner: workload definitions and the two measurement
// passes (untraced and traced) over them.
//
// Every run is described only by an ExperimentSpec built from scaleSpec() and
// one workload seed, and executes through the simulator's public API. The
// untraced pass times Experiment construction and Experiment::run() (plus
// output writing); the traced pass attributes one run to the simulator's
// layers by timing calls into their public seams from outside (tracing.h).
// README.md beside this file explains the workloads and every metric.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness/spec.h"

namespace perfbench {

// Seed whose simulated results expected.json pins.
inline constexpr std::uint64_t kDefaultSeed = 1;

// Experiment constructions per untraced operation: one cold (setup.first_s),
// then eight warm ones whose median is setup_s.
inline constexpr unsigned kSetupReps = 9;

// Named measurements. Simulated values repeat exactly for one spec; host
// values (seconds, bytes of RSS) vary run to run.
using Values = std::map<std::string, double>;

// Workload names in canonical order.
const std::vector<std::string>& workloadNames();
bool isWorkload(const std::string& name);

// The workload's spec for `seed`, expanded as `hxsim --seed=N --fault-seed=N`
// expands it for point 0 of a sweep: harness::sweepPointConfig derives the
// injection and network seeds, and the pattern and fault seeds are N itself.
// Workloads that write output files put them under `outDir` (created by the
// caller).
hxwar::harness::ExperimentSpec workloadSpec(const std::string& name, std::uint64_t seed,
                                            const std::string& outDir);

// Untraced pass. Constructs the workload's Experiment `setupReps` times
// (the first construction is cold and reported apart), runs the last one and
// writes the spec's output files inside the timed region.
struct PlainRun {
  Values sim;
  Values host;  // setup_s, setup.first_s, setup.minor_faults, run_s, wall_s,
                // peak_rss_mib, sim.events
};
PlainRun runPlain(const hxwar::harness::ExperimentSpec& spec, unsigned setupReps);

// Traced pass: the same run with decorated routing and pattern instances,
// per-lane hop listeners and a timed backend. Writes the span file (Chrome
// trace JSON) and the self-time table, and returns the per-layer metrics.
struct TracedRun {
  Values sim;
  Values layers;
  Values selfSeconds;  // self time per layer; sums to wallSeconds
  double wallSeconds = 0.0;
};
TracedRun runTraced(const hxwar::harness::ExperimentSpec& spec, const std::string& spanPath,
                    const std::string& tablePath);

// `s` as a quoted JSON string (escapes quotes, backslashes and newlines).
void writeJsonString(std::FILE* f, const std::string& s);

}  // namespace perfbench
