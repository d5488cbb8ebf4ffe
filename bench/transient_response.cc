// Transient response: how quickly does each routing algorithm adapt when the
// traffic pattern changes under it? §6.2 notes that "adaptive routing
// algorithms need to quickly adapt to changing network conditions" and that
// "an adaptive routing algorithm that is slow to react ... will cause poor
// performance" — this bench quantifies it directly.
//
// The network runs uniform-random traffic until steady, then the pattern
// flips to the adversarial URBy at the same offered load. We report the mean
// packet latency in windows after the switch and the time until the latency
// returns within 50% of its eventual post-switch steady state.
//
// Flags: --scale=small --load=0.3 --window=500 --windows=16
//        --from=ur --to=urby --algorithms=...
#include <cstdio>

#include "bench_common.h"
#include "harness/table.h"
#include "metrics/stats.h"
#include "traffic/pattern.h"

int main(int argc, char** argv) {
  using namespace hxwar;
  using namespace hxwar::bench;
  Flags flags;
  flags.parse(argc, argv);
  auto opts = parseBenchOptions(argc, argv, {});
  if (!requireSerialPoints(opts)) return 1;
  printHeader("Transient response", "Latency recovery after a UR -> URBy pattern switch",
              opts);

  const double load = flags.f64("load", 0.3);
  const Tick window = flags.u64("window", 500);
  const auto windows = static_cast<std::uint32_t>(flags.u64("windows", 16));
  const std::string fromName = flags.str("from", "ur");
  const std::string toName = flags.str("to", "urby");

  std::printf("offered %.0f%%, switch %s -> %s at t0, %u windows of %llu cycles\n\n",
              load * 100.0, fromName.c_str(), toName.c_str(), windows,
              static_cast<unsigned long long>(window));

  std::vector<std::string> headers = {"algorithm", "pre"};
  for (std::uint32_t w = 0; w < windows; ++w) headers.push_back("w" + std::to_string(w));
  headers.push_back("final/pre");
  harness::Table table(headers);

  for (const auto& algorithm : opts.algorithms) {
    harness::ExperimentSpec spec = opts.spec;
    spec.routing = algorithm;
    spec.pattern = fromName;
    spec.injection.rate = load;
    harness::Experiment exp(spec);
    auto toPattern = traffic::makePattern(toName, exp.hyperx());

    metrics::StreamingStats windowLat;
    net::CallbackListener cb54;
    cb54.ejected = [&](const net::Packet& p) {
      windowLat.add(static_cast<double>(p.ejectedAt - p.createdAt));
    };
    exp.network().setListener(&cb54);

    exp.injector().start();
    exp.sim().run(3000);  // reach steady state on the benign pattern
    windowLat.reset();
    exp.sim().run(exp.sim().now() + window);  // pre-switch reference window
    const double preLat = windowLat.count() > 0 ? windowLat.mean() : 0.0;
    exp.injector().setPattern(*toPattern);

    std::vector<double> lat(windows, 0.0);
    for (std::uint32_t w = 0; w < windows; ++w) {
      windowLat.reset();
      exp.sim().run(exp.sim().now() + window);
      lat[w] = windowLat.count() > 0 ? windowLat.mean() : 0.0;
    }
    exp.injector().stop();

    std::vector<std::string> row = {algorithm, harness::Table::num(preLat, 0)};
    for (std::uint32_t w = 0; w < windows; ++w) {
      row.push_back(harness::Table::num(lat[w], 0));
    }
    row.push_back(preLat > 0 ? harness::Table::num(lat.back() / preLat, 1) + "x" : "-");
    table.addRow(std::move(row));
  }
  table.print();
  std::printf("\n(mean packet latency per post-switch window; final/pre near 1x = the\n"
              "algorithm absorbed the adversarial shift, growing = it cannot sustain it)\n");
  return 0;
}
