// hxbench: one measurement of one Fig. 6 workload in a fresh process.
//
//   hxbench --workload=NAME --seed=N --mode=plain|traced|noobs --out=DIR
//
// plain   untraced: kSetupReps constructions (setup_s), then run() + writers
// traced  the traced pass (tracing.h); writes DIR/spans.json, DIR/layers.txt
// noobs   plain with the spec's observability options cleared
//
// Prints one JSON object: {"status": "ok"|"failed", "message", "sim", "host",
// "layers"}. A point that raises hxwar::Error prints status "failed" and
// exits 3; run.py counts it as a failed operation. See README.md.
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/error.h"
#include "common/flags.h"
#include "core.h"

namespace {

void printValues(const char* key, const perfbench::Values& values) {
  std::printf(",\"%s\":{", key);
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) std::putchar(',');
    first = false;
    perfbench::writeJsonString(stdout, name);
    std::printf(":%.17g", value);
  }
  std::putchar('}');
}

}  // namespace

int main(int argc, char** argv) {
  hxwar::Flags flags;
  if (!flags.parse(argc, argv)) return 2;
  const std::string workload = flags.str("workload", "");
  const std::string mode = flags.str("mode", "plain");
  const std::string outDir = flags.str("out", "");
  if (!perfbench::isWorkload(workload) || outDir.empty() ||
      (mode != "plain" && mode != "traced" && mode != "noobs")) {
    std::fprintf(stderr,
                 "usage: hxbench --workload=NAME --seed=N --mode=plain|traced|noobs --out=DIR\n");
    return 2;
  }
  const auto seed = flags.u64("seed", perfbench::kDefaultSeed);
  std::filesystem::create_directories(outDir);

  hxwar::harness::ExperimentSpec spec = perfbench::workloadSpec(workload, seed, outDir);
  if (mode == "noobs") spec.obs = hxwar::obs::ObsOptions();
  try {
    if (mode == "traced") {
      const perfbench::TracedRun run =
          perfbench::runTraced(spec, outDir + "/spans.json", outDir + "/layers.txt");
      std::printf("{\"status\":\"ok\"");
      printValues("sim", run.sim);
      printValues("host", {{"wall_s", run.wallSeconds}});
      printValues("layers", run.layers);
    } else {
      const perfbench::PlainRun run = perfbench::runPlain(spec, perfbench::kSetupReps);
      std::printf("{\"status\":\"ok\"");
      printValues("sim", run.sim);
      printValues("host", run.host);
    }
    std::printf("}\n");
  } catch (const hxwar::Error& e) {
    std::printf("{\"status\":\"failed\",\"message\":");
    perfbench::writeJsonString(stdout, e.what());
    std::printf("}\n");
    return 3;
  }
  return 0;
}
