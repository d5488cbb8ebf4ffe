// Figure 4: topology performance comparison with 27-point stencil traffic —
// Fat tree vs. Dragonfly vs. HyperX at equal node count, each with its best
// practical routing (fat tree: adaptive up/down; Dragonfly: UGAL; HyperX:
// DimWAR and OmniWAR). Paper: the HyperX yields a 25-38% reduction in
// communication time, from lower collective latency and higher adaptive
// throughput during halo exchanges. Lower is better.
//
// Every candidate is an ExperimentSpec resolved through the registry; the
// (candidate, mode) grid is embarrassingly parallel and keyed by flat index,
// so --jobs=N produces byte-identical table/CSV output to --jobs=1.
//
// Flags: --halo-kb=48 --iterations=1 --seed=7 --nodes=256|4096
//        --jobs=N --csv=<file> --perf-json=<file>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>

#include "app/stencil.h"
#include "common/flags.h"
#include "harness/csv.h"
#include "harness/parallel.h"
#include "harness/registry.h"
#include "harness/spec.h"
#include "harness/sweep_runner.h"
#include "harness/table.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace {

using namespace hxwar;

struct Candidate {
  std::string name;
  harness::ExperimentSpec spec;
};

Candidate makeCandidate(const std::string& name, const std::string& topology,
                        const std::string& routing,
                        std::initializer_list<std::pair<const char*, const char*>> params,
                        std::uint64_t seed) {
  Candidate c;
  c.name = name;
  c.spec.topology = topology;
  c.spec.routing = routing;
  for (const auto& [key, value] : params) c.spec.params[key] = value;
  // The spec's default network config matches the figure's historical setup
  // (8-cycle channels, 48/32 buffers, 4x speedup); only the seed moves.
  c.spec.net.rngSeed = seed + 1;
  return c;
}

struct CellResult {
  app::StencilResult stencil;
  double wallSeconds = 0.0;
  std::uint64_t events = 0;
};

CellResult runStencil(const harness::ExperimentSpec& spec, std::uint64_t haloBytes,
                      std::uint32_t iterations, app::StencilMode mode, std::uint64_t seed,
                      std::array<std::uint32_t, 3> grid) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::Simulator sim;
  auto& registry = harness::ExperimentRegistry::instance();
  const Flags params = spec.paramFlags();
  auto topo = registry.topology(spec.topology).build(params);
  auto routing = registry.routing(spec.topology, spec.routing).build(*topo, params);
  net::Network network(sim, *topo, *routing, spec.net);
  app::StencilConfig sc;
  sc.grid = grid;
  sc.haloBytesPerNode = haloBytes;
  sc.iterations = iterations;
  sc.mode = mode;
  sc.seed = seed;
  app::StencilApp stencil(network, sc);
  CellResult result;
  result.stencil = stencil.run();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
  result.wallSeconds = elapsed.count();
  result.events = sim.eventsProcessed();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.parse(argc, argv);
  const std::uint64_t haloBytes = flags.u64("halo-kb", 48) * 1024;
  const auto iterations = static_cast<std::uint32_t>(flags.u64("iterations", 1));
  const std::uint64_t seed = flags.u64("seed", 7);
  const bool paperScale = flags.u64("nodes", 256) >= 4096;
  auto jobs = static_cast<unsigned>(flags.u64("jobs", harness::defaultJobs()));
  if (jobs == 0) jobs = 1;
  const std::string csvPath = flags.str("csv", "");
  const std::string perfJsonPath = flags.str("perf-json", "BENCH_sweep.json");

  std::vector<Candidate> candidates;
  std::array<std::uint32_t, 3> grid{};
  if (!paperScale) {
    grid = {8, 8, 4};  // 256 processes
    candidates.push_back(makeCandidate("FatTree (adaptive)", "fattree", "adaptive",
                                       {{"ft-down", "4,8,8"}, {"ft-up", "4,8"}}, seed));
    candidates.push_back(makeCandidate("FatTree (2:1 taper)", "fattree", "adaptive",
                                       {{"ft-down", "4,8,8"}, {"ft-up", "4,4"}}, seed));
    candidates.push_back(makeCandidate(
        "Dragonfly (UGAL)", "dragonfly", "ugal",
        {{"df-p", "4"}, {"df-a", "8"}, {"df-h", "4"}, {"df-g", "8"}}, seed));
    candidates.push_back(makeCandidate(
        "Dragonfly (PAR)", "dragonfly", "par",
        {{"df-p", "4"}, {"df-a", "8"}, {"df-h", "4"}, {"df-g", "8"}}, seed));
    candidates.push_back(makeCandidate("HyperX (DimWAR)", "hyperx", "dimwar",
                                       {{"widths", "4,4,4"}, {"terminals", "4"}}, seed));
    candidates.push_back(makeCandidate("HyperX (OmniWAR)", "hyperx", "omniwar",
                                       {{"widths", "4,4,4"}, {"terminals", "4"}}, seed));
  } else {
    grid = {16, 16, 16};  // 4,096 processes (paper scale)
    candidates.push_back(makeCandidate("FatTree (adaptive)", "fattree", "adaptive",
                                       {{"ft-down", "16,16,16"}, {"ft-up", "8,16"}}, seed));
    candidates.push_back(makeCandidate(
        "Dragonfly (UGAL)", "dragonfly", "ugal",
        {{"df-p", "8"}, {"df-a", "16"}, {"df-h", "8"}, {"df-g", "32"}}, seed));
    candidates.push_back(makeCandidate("HyperX (OmniWAR)", "hyperx", "omniwar",
                                       {{"widths", "8,8,8"}, {"terminals", "8"}}, seed));
  }

  std::printf("=== Figure 4 ===\n");
  std::printf("27-pt stencil execution time across topologies (equal node count, "
              "halo %llu kB/node, %u iteration(s)). Lower is better.\n\n",
              static_cast<unsigned long long>(haloBytes / 1024), iterations);

  const std::vector<std::pair<std::string, app::StencilMode>> modes = {
      {"collective", app::StencilMode::kCollectiveOnly},
      {"exchange", app::StencilMode::kExchangeOnly},
      {"full", app::StencilMode::kFull}};

  // Flatten (candidate, mode) and farm cells out; results land in flat-index
  // order, so parallel execution cannot change any number downstream.
  std::unique_ptr<harness::ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<harness::ThreadPool>(jobs);
  const auto cellResults = harness::parallelMapOrdered(
      pool.get(), candidates.size() * modes.size(), [&](std::size_t i) {
        const auto& cand = candidates[i / modes.size()];
        const auto& mode = modes[i % modes.size()];
        return runStencil(cand.spec, haloBytes, iterations, mode.second, seed, grid);
      });

  harness::SweepPerfLog perf;
  std::vector<std::array<Tick, 3>> results;
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    std::array<Tick, 3> r{};
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const CellResult& cell = cellResults[ci * modes.size() + m];
      r[m] = cell.stencil.makespan;
      perf.add({.series = candidates[ci].name + "/" + modes[m].first,
                .wallSeconds = cell.wallSeconds,
                .events = cell.events,
                .eventsPerSec = cell.wallSeconds > 0.0
                                    ? static_cast<double>(cell.events) / cell.wallSeconds
                                    : 0.0});
    }
    results.push_back(r);
  }

  // "Communication time reduction" of each HyperX row vs. the best
  // non-HyperX full-app time.
  Tick bestOther = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].name.rfind("HyperX", 0) != 0) {
      if (bestOther == 0 || results[i][2] < bestOther) bestOther = results[i][2];
    }
  }
  const std::vector<std::string> columns = {"topology", "collective", "exchange", "full",
                                            "vs. best non-HyperX"};
  harness::Table table(columns);
  harness::CsvWriter csv(csvPath, columns);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    std::string delta = "-";
    if (candidates[i].name.rfind("HyperX", 0) == 0 && bestOther > 0) {
      const double red = 1.0 - static_cast<double>(results[i][2]) / bestOther;
      delta = harness::Table::pct(red) + " faster";
    }
    const std::vector<std::string> row = {candidates[i].name, std::to_string(results[i][0]),
                                          std::to_string(results[i][1]),
                                          std::to_string(results[i][2]), delta};
    csv.row(row);
    table.addRow(row);
  }
  table.print();
  std::printf("\n(paper: HyperX 25-38%% communication-time reduction vs. Fat tree/Dragonfly)\n");
  perf.writeJson(perfJsonPath, "Figure 4", paperScale ? "paper" : "small", jobs);
  return 0;
}
