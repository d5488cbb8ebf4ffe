// Parallel sweep engine.
//
// A load-latency sweep is a list of independent Experiment instances — one
// per (algorithm, load, seed) point — so the runner farms points out to a
// thread pool and reduces results in point order. Determinism contract:
//
//   * Every point's seeds derive from (base seed, point index) via
//     sweepPointConfig(); thread identity and completion order never enter.
//   * Results are reduced in ascending point order, and the stop-at-
//     saturation cut (two consecutive saturated loads) is applied in that
//     ordered position. Points speculatively executed past the cut are
//     discarded, never reordered.
//
// Consequently runLoadSweep(jobs=N) returns bit-identical SweepPoints to
// runLoadSweep(jobs=1), which itself is the exact serial loadLatencySweep()
// path. Only the wall-clock telemetry fields vary between runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/parallel.h"

namespace hxwar::harness {

struct SweepOptions {
  unsigned jobs = 1;             // 1 = exact legacy serial path
  bool stopAtSaturation = true;  // cut after two consecutive saturated loads
  // How many points to run speculatively per scheduling wave, as a multiple
  // of `jobs`. Larger waves waste more work past the saturation cut; smaller
  // waves leave workers idle between waves.
  unsigned waveFactor = 2;
};

// Runs the load grid, possibly on `jobs` threads, for any registered topology
// family. See the determinism contract above. An exception in any point
// propagates to the caller.
std::vector<SweepPoint> runLoadSweep(const ExperimentSpec& base,
                                     const std::vector<double>& loads,
                                     const SweepOptions& options);

// As runLoadSweep, but reuses an existing pool (nullptr = run serial).
std::vector<SweepPoint> runLoadSweep(const ExperimentSpec& base,
                                     const std::vector<double>& loads,
                                     const SweepOptions& options, ThreadPool* pool);

// Accumulates per-point perf telemetry across a bench run and writes the
// BENCH_sweep.json trajectory file consumed by cross-PR perf tracking.
class SweepPerfLog {
 public:
  struct Entry {
    std::string series;     // e.g. "dimwar/ur"
    double load = 0.0;
    bool saturated = false;
    double wallSeconds = 0.0;
    std::uint64_t events = 0;
    double eventsPerSec = 0.0;
    // Intra-point shard count the point ran with (see --point-jobs).
    std::uint32_t pointJobs = 1;
    // Crash isolation (SweepPoint::status): "ok", or "failed" with the error
    // text in `message` — failed points stay in the perf log as attributed
    // rows rather than vanishing.
    std::string status = "ok";
    std::string message = {};
  };

  void add(const std::string& series, const SweepPoint& point);
  void addAll(const std::string& series, const std::vector<SweepPoint>& points);
  // Generic entry for work that is not a sweep point (stencil cells,
  // collective phases, ...).
  void add(Entry entry);

  std::size_t points() const { return entries_.size(); }
  double totalWallSeconds() const { return totalWall_; }
  std::uint64_t totalEvents() const { return totalEvents_; }

  // Writes the JSON file; silently does nothing when `path` is empty.
  // Returns false when the file cannot be opened.
  bool writeJson(const std::string& path, const std::string& bench,
                 const std::string& scale, unsigned jobs) const;

 private:
  std::vector<Entry> entries_;
  double totalWall_ = 0.0;
  std::uint64_t totalEvents_ = 0;
};

}  // namespace hxwar::harness
