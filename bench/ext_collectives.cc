// Extension: collective-algorithm comparison on the HyperX.
//
// Fig. 8a showed collectives are latency-bound and favor minimal routing;
// §6.2 contrasts the topology-agnostic dissemination algorithm [41] with
// recursive doubling [42]. This bench runs all three classic allreduce
// schedules (dissemination, recursive doubling, ring) across routing
// algorithms and payload sizes, reporting the makespan.
//
// Expected shape: small payloads — log-depth algorithms win, routing barely
// matters (all adaptives ride minimal paths); large payloads — the
// bandwidth-optimal ring catches up, and adaptive routing starts to matter
// because rounds become exchange-like.
//
// The (payload, algorithm, schedule) grid runs on --jobs threads; cells are
// independent Experiments keyed by flat index, so the printed tables and
// --csv output are byte-identical for any --jobs value.
//
// Flags: --scale=small --bytes-list=64,65536 --reps=1 --algorithms=...
//        --jobs=N --csv=<file> --perf-json=<file>
#include <chrono>
#include <cstdio>
#include <memory>

#include "app/collective.h"
#include "bench_common.h"
#include "harness/csv.h"
#include "harness/parallel.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace hxwar;
  using namespace hxwar::bench;
  Flags flags;
  flags.parse(argc, argv);
  auto opts = parseBenchOptions(argc, argv, {});
  if (!requireSerialPoints(opts)) return 1;
  printHeader("Collectives (extension)",
              "Allreduce schedules x routing algorithms (makespan in cycles)", opts);

  // Default to a representative algorithm subset; large payloads on the
  // oblivious algorithms are slow to simulate and add little signal.
  if (!flags.has("algorithms")) {
    opts.algorithms = {"dor", "ugal", "dimwar", "omniwar"};
  }
  const auto bytesList = flags.f64List("bytes-list", {64, 32768});
  const auto reps = static_cast<std::uint32_t>(flags.u64("reps", 1));
  const std::vector<app::CollectiveKind> kinds = {app::CollectiveKind::kDissemination,
                                                  app::CollectiveKind::kRecursiveDoubling,
                                                  app::CollectiveKind::kRing,
                                                  app::CollectiveKind::kAllToAll};

  struct Cell {
    Tick makespan = 0;
    double wallSeconds = 0.0;
    std::uint64_t events = 0;
  };
  // Flatten (payload, algorithm, schedule); flat-index ordering keeps the
  // output independent of scheduling.
  const std::size_t perBytes = opts.algorithms.size() * kinds.size();
  std::unique_ptr<harness::ThreadPool> pool;
  if (opts.jobs > 1) pool = std::make_unique<harness::ThreadPool>(opts.jobs);
  const auto cells = harness::parallelMapOrdered(
      pool.get(), bytesList.size() * perBytes, [&](std::size_t i) {
        const auto bytes = static_cast<std::uint64_t>(bytesList[i / perBytes]);
        const std::string& algorithm = opts.algorithms[(i % perBytes) / kinds.size()];
        const app::CollectiveKind kind = kinds[i % kinds.size()];
        const auto t0 = std::chrono::steady_clock::now();
        harness::ExperimentSpec spec = opts.spec;
        spec.routing = algorithm;
        harness::Experiment exp(spec);
        app::CollectiveConfig cc;
        cc.kind = kind;
        cc.bytes = bytes;
        cc.repetitions = reps;
        cc.seed = opts.seed;
        app::CollectiveApp app(exp.network(), cc);
        Cell cell;
        cell.makespan = app.run().makespan;
        const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
        cell.wallSeconds = dt.count();
        cell.events = exp.sim().eventsProcessed();
        return cell;
      });

  std::vector<std::string> csvColumns = {"bytes", "algorithm", "schedule", "makespan"};
  harness::CsvWriter csv(opts.csvPath, csvColumns);
  harness::SweepPerfLog perf;
  for (std::size_t bi = 0; bi < bytesList.size(); ++bi) {
    const auto bytes = static_cast<std::uint64_t>(bytesList[bi]);
    std::printf("--- payload %llu B per process, %u repetition(s) ---\n",
                static_cast<unsigned long long>(bytes), reps);
    std::vector<std::string> headers = {"algorithm"};
    for (const auto kind : kinds) headers.push_back(app::collectiveKindName(kind));
    harness::Table table(headers);
    for (std::size_t ai = 0; ai < opts.algorithms.size(); ++ai) {
      std::vector<std::string> row = {opts.algorithms[ai]};
      for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
        const Cell& cell = cells[bi * perBytes + ai * kinds.size() + ki];
        row.push_back(std::to_string(cell.makespan));
        csv.row({std::to_string(bytes), opts.algorithms[ai],
                 app::collectiveKindName(kinds[ki]), std::to_string(cell.makespan)});
        perf.add({.series = opts.algorithms[ai] + "/" + app::collectiveKindName(kinds[ki]),
                  .load = static_cast<double>(bytes),
                  .wallSeconds = cell.wallSeconds,
                  .events = cell.events,
                  .eventsPerSec = cell.wallSeconds > 0.0
                                      ? static_cast<double>(cell.events) / cell.wallSeconds
                                      : 0.0});
      }
      table.addRow(std::move(row));
    }
    table.print();
    std::printf("\n");
  }
  std::printf("(dissemination/recursive-doubling: log-depth, latency-bound; ring: 2(P-1)\n"
              "steps but bandwidth-optimal — crossover appears at large payloads)\n");
  perf.writeJson(opts.perfJsonPath, "Collectives (extension)", opts.scale, opts.jobs);
  return 0;
}
