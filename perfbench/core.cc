#include "core.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/assert.h"
#include "common/error.h"
#include "fault/degraded_topology.h"
#include "harness/experiment.h"
#include "harness/obs_io.h"
#include "harness/registry.h"
#include "tracing.h"

namespace perfbench {
namespace {

using hxwar::harness::Experiment;
using hxwar::harness::ExperimentSpec;
using hxwar::harness::SweepPoint;

// Steady-state windows are shortened from the presets' publication lengths
// so one run takes seconds, while every stable workload still measures well
// over 1,000 packets. Short warmup windows also keep the run length nearly
// seed-independent: warmup and drain advance in warmup-window steps, and a
// coarse step turns one extra window into a large share of the run.
// Warmup and measure windows differ so the traced pass can tell the phases
// apart (TimedBackend).
ExperimentSpec baseSpec(const std::string& name) {
  if (name == "paper-ur" || name == "paper-ur-pj2") {
    // The paper's 4,096-node 8x8x8 HyperX at a low fig06a point: the work
    // sits in the event core and the injector, not in route().
    ExperimentSpec spec = hxwar::harness::scaleSpec("paper");
    spec.routing = "dimwar";
    spec.pattern = "ur";
    spec.injection.rate = 0.1;
    spec.steady.warmupWindow = 100;
    spec.steady.maxWarmupWindows = 40;
    spec.steady.measureWindow = 300;
    if (name == "paper-ur-pj2") spec.pointJobs = 2;
    return spec;
  }
  if (name == "small-saturated") {
    // Fig. 6g: OmniWAR at full offered load on URBy. Every warmup window
    // runs (the point never stabilises), blocked heads re-run route() every
    // cycle, and source queues grow without bound.
    ExperimentSpec spec = hxwar::harness::scaleSpec("small");
    spec.routing = "omniwar";
    spec.pattern = "urby";
    spec.injection.rate = 1.0;
    spec.steady.warmupWindow = 300;
    spec.steady.maxWarmupWindows = 4;
    spec.steady.measureWindow = 600;
    return spec;
  }
  if (name == "small-faulted-observed") {
    // FTAR on a 10%-link-fault network with escape fallback, with the
    // flight recorder, packet tracing and all three output writers on.
    // Offered load 0.2, not 0.3: at 0.3 the degraded networks sit at the
    // knee of their latency curve and p99 swings 111-209 cycles across
    // seeds. The looser stability and backlog tolerances stop random
    // backlog swings from restarting the warmup count.
    ExperimentSpec spec = hxwar::harness::scaleSpec("small");
    spec.routing = "ftar";
    spec.pattern = "ur";
    spec.injection.rate = 0.2;
    spec.steady.warmupWindow = 200;
    spec.steady.maxWarmupWindows = 40;
    spec.steady.stabilityTol = 0.15;
    spec.steady.backlogGrowthTol = 1.5;
    spec.steady.measureWindow = 4000;
    spec.fault.rate = 0.1;
    spec.fault.policy = hxwar::fault::FaultPolicy::kEscape;
    spec.obs.windowTicks = 200;
    spec.obs.traceSample = 8;
    return spec;
  }
  HXWAR_CHECK_MSG(false, ("unknown workload: " + name).c_str());
  return ExperimentSpec();
}

struct Writer {
  const char* name;
  std::string path;
  bool (*write)(const std::string&, const ExperimentSpec&, const std::vector<SweepPoint>&);
};

std::vector<Writer> writersFor(const ExperimentSpec& spec) {
  std::vector<Writer> w;
  if (spec.obs.tracing()) w.push_back({"trace", spec.obs.traceOut, hxwar::harness::writeTraceJson});
  if (!spec.obs.metricsJson.empty()) {
    w.push_back({"metrics", spec.obs.metricsJson, hxwar::harness::writeMetricsJson});
  }
  if (!spec.obs.timelineOut.empty()) {
    w.push_back({"timeline", spec.obs.timelineOut, hxwar::harness::writeTimelineJsonl});
  }
  return w;
}

void write(const Writer& w, const ExperimentSpec& spec, const std::vector<SweepPoint>& points) {
  if (!w.write(w.path, spec, points)) throw hxwar::Error(std::string("cannot write ") + w.path);
}

// The per-point captures the output writers read, as runSweepPoint
// assembles them: lane traces merged and canonicalised, recorder windows.
SweepPoint capturePoint(Experiment& exp, const hxwar::metrics::SteadyStateResult& result) {
  SweepPoint p;
  p.load = exp.spec().injection.rate;
  p.result = result;
  p.pointJobs = exp.pointJobs();
  if constexpr (hxwar::obs::kCompiledIn) {
    if (exp.observer() != nullptr) {
      for (const auto& o : exp.observers()) {
        for (const hxwar::obs::TraceEvent& e : o->trace().events()) p.trace.add(e);
      }
      hxwar::obs::canonicalize(p.trace);
      p.samples = exp.observer()->samples();
    }
    if (exp.recorder() != nullptr) {
      p.windows = exp.recorder()->windows();
      p.shardWindows = exp.recorder()->shardWindows();
    }
  }
  return p;
}

rusage usage() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return r;
}

// The deterministic results a run is checked on: SteadyStateResult fields
// plus simulated cycles and flit moves. Equal specs give equal values on
// either engine, traced or not.
Values simulatedValues(const hxwar::metrics::SteadyStateResult& r, Experiment& exp) {
  return {
      {"sim_saturated", r.saturated ? 1.0 : 0.0},
      {"sim_accepted", r.accepted},
      {"sim_latency_p50", r.latencyP50},
      {"sim_latency_p90", r.latencyP90},
      {"sim_latency_p99", r.latencyP99},
      {"sim_latency_p999", r.latencyP999},
      {"sim_hops", r.avgHops},
      {"sim_deroutes", r.avgDeroutes},
      {"sim_packets_dropped", static_cast<double>(r.packetsDropped)},
      {"sim_delivered_share", 1.0 - r.droppedShare},
      {"metrics.packets_measured", static_cast<double>(r.packetsMeasured)},
      {"sim.cycles", static_cast<double>(exp.backend().now())},
      {"net.flit_moves", static_cast<double>(exp.network().flitMovements())},
  };
}

double peakRssMib() { return static_cast<double>(usage().ru_maxrss) / 1024.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"paper-ur", "paper-ur-pj2", "small-saturated",
                                                 "small-faulted-observed"};
  return names;
}

bool isWorkload(const std::string& name) {
  const auto& names = workloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

ExperimentSpec workloadSpec(const std::string& name, std::uint64_t seed,
                            const std::string& outDir) {
  ExperimentSpec spec = baseSpec(name);
  spec.injection.seed = seed;
  spec.patternSeed = seed;
  spec.fault.seed = seed;
  spec = hxwar::harness::sweepPointConfig(spec, spec.injection.rate, 0);
  HXWAR_CHECK_MSG(spec.steady.warmupWindow != spec.steady.measureWindow,
                  "warmup and measure windows must differ (TimedBackend phase labels)");
  if (spec.obs.windowTicks > 0) {
    spec.obs.traceOut = outDir + "/trace.json";
    spec.obs.metricsJson = outDir + "/metrics.json";
    spec.obs.timelineOut = outDir + "/timeline.jsonl";
  }
  return spec;
}

void writeJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '\n') {
      std::fputs("\\n", f);
      continue;
    }
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

PlainRun runPlain(const ExperimentSpec& spec, unsigned setupReps) {
  PlainRun out;
  std::vector<double> warm;
  std::unique_ptr<Experiment> exp;
  for (unsigned i = 0; i < std::max(1u, setupReps); ++i) {
    exp.reset();  // one Experiment alive at a time
    const rusage r0 = usage();
    const Clock::time_point t0 = Clock::now();
    exp = std::make_unique<Experiment>(spec);
    const double s = secondsSince(t0);
    if (i == 0) {
      out.host["setup.first_s"] = s;
      out.host["setup.minor_faults"] = static_cast<double>(usage().ru_minflt - r0.ru_minflt);
    } else {
      warm.push_back(s);
    }
  }
  out.host["setup_s"] = warm.empty() ? out.host["setup.first_s"] : median(warm);

  const Clock::time_point t0 = Clock::now();
  hxwar::metrics::SteadyStateResult result = exp->run();
  out.host["run_s"] = secondsSince(t0);
  const std::vector<Writer> writers = writersFor(spec);
  if (!writers.empty()) {
    const std::vector<SweepPoint> points = {capturePoint(*exp, result)};
    for (const Writer& w : writers) write(w, spec, points);
  }
  out.host["wall_s"] = secondsSince(t0);

  out.sim = simulatedValues(result, *exp);
  out.host["sim.events"] = static_cast<double>(exp->backend().eventsProcessed());
  out.host["peak_rss_mib"] = peakRssMib();
  return out;
}

TracedRun runTraced(const ExperimentSpec& spec, const std::string& spanPath,
                    const std::string& tablePath) {
  auto& registry = hxwar::harness::ExperimentRegistry::instance();
  TracedRun out;
  Values& L = out.layers;
  SpanLog log;
  Tallies::instance().reset();

  // --- set-up: the whole construction (cold), then each step alone ---
  const rusage r0 = usage();
  int id = log.begin("Experiment()", "harness", -1);
  Experiment exp(tracedSpec(spec));
  log.end(id);
  L["setup.first_s"] = log.span(id).dur;
  L["setup.minor_faults"] = static_cast<double>(usage().ru_minflt - r0.ru_minflt);

  const hxwar::Flags params = spec.paramFlags();
  id = log.begin("topology build", "harness", -1);
  const auto topology = registry.topology(spec.topology).build(params);
  log.end(id);
  L["setup.topology_s"] = log.span(id).dur;

  L["setup.fault_s"] = 0.0;
  if (spec.fault.active()) {
    id = log.begin("fault set", "fault", -1);
    const hxwar::fault::FaultSet faults = hxwar::fault::buildFaultSet(exp.topology(), spec.fault);
    hxwar::fault::DeadPortMask mask(exp.topology().numRouters(), exp.network().maxPorts());
    mask.apply(faults.ports);
    hxwar::fault::DegradedTopology degraded(exp.topology(), mask, spec.fault.toleratesPartition());
    log.end(id);
    L["setup.fault_s"] = log.span(id).dur;
  }

  {
    // The network constructor alone, over the same shard layout.
    hxwar::net::NetworkConfig netCfg = spec.net;
    if (spec.fault.active()) netCfg.router.faultPolicy = spec.fault.effectivePolicy();
    const std::uint32_t shards = exp.pointJobs();
    hxwar::sim::par::ShardPlan plan;
    std::unique_ptr<hxwar::sim::par::Mailboxes> mail;
    std::vector<std::unique_ptr<hxwar::sim::Simulator>> sims;
    std::vector<std::unique_ptr<hxwar::routing::RoutingAlgorithm>> routing;
    hxwar::net::ShardLayout layout;
    if (shards > 1) {
      plan = hxwar::sim::par::contiguousShards(exp.topology().numRouters(), shards);
      mail = std::make_unique<hxwar::sim::par::Mailboxes>(shards);
      layout.plan = &plan;
      layout.mail = mail.get();
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      sims.push_back(std::make_unique<hxwar::sim::Simulator>());
      layout.sims.push_back(sims.back().get());
      routing.push_back(registry.routing(spec.topology, spec.routing).build(exp.topology(), params));
      layout.routing.push_back(routing.back().get());
    }
    id = log.begin("Network()", "net", -1);
    hxwar::net::Network network(layout, exp.effectiveTopology(), netCfg);
    log.end(id);
    L["setup.network_s"] = log.span(id).dur;
  }

  // --- the timed run: runSteadyState through the timed backend, then writers ---
  hxwar::net::Network& net = exp.network();
  std::vector<HopCounter> hops(net.numLanes());
  for (std::uint32_t l = 0; l < net.numLanes(); ++l) net.setHopListener(l, &hops[l]);
  std::vector<hxwar::traffic::SyntheticInjector*> injectors;
  for (const auto& inj : exp.injectors()) injectors.push_back(inj.get());

  const int run = log.begin("run", "harness", -1);
  const int steady = log.begin("runSteadyState", "metrics", run);
  TimedBackend backend(exp.backend(), exp.parEngine(), log, steady, spec.steady, hops);
  hxwar::metrics::SteadyStateResult result =
      hxwar::metrics::runSteadyState(backend, net, injectors, spec.steady);
  log.end(steady);
  result.unreachablePairs = exp.connectivity().unreachablePairs;
  result.unreachableRouters = exp.connectivity().unreachableRouters;
  const std::vector<Writer> writers = writersFor(spec);
  double outputBytes = 0.0;
  std::size_t traceEvents = 0;
  std::size_t windows = 0;
  if (!writers.empty()) {
    id = log.begin("capture point", "obs", run);
    const std::vector<SweepPoint> points = {capturePoint(exp, result)};
    log.end(id);
    traceEvents = points[0].trace.size();
    windows = points[0].windows.size();
    for (const Writer& w : writers) {
      id = log.begin(std::string("write ") + w.name, "obs", run);
      write(w, spec, points);  // the untraced spec: files match the untraced run's
      log.end(id);
      outputBytes += static_cast<double>(std::filesystem::file_size(w.path));
    }
  }
  log.end(run);
  for (std::uint32_t l = 0; l < net.numLanes(); ++l) net.setHopListener(l, nullptr);

  out.sim = simulatedValues(result, exp);
  out.wallSeconds = log.span(run).dur;
  out.selfSeconds = log.selfTimeByLayer(run);
  const Values& self = out.selfSeconds;
  const auto selfOf = [&self](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };

  // sim
  const double events = static_cast<double>(exp.backend().eventsProcessed());
  const double cycles = out.sim["sim.cycles"];
  const double flitMoves = out.sim["net.flit_moves"];
  L["sim.run_s"] = backend.runSeconds();
  L["sim.run_self_s"] = selfOf("sim");
  L["sim.events"] = events;
  L["sim.events_per_flit_move"] = flitMoves > 0 ? events / flitMoves : 0.0;
  L["sim.cycles"] = cycles;

  // routing
  const RouteTally route = Tallies::instance().routeTotal();
  std::uint64_t grants = 0;
  for (const HopCounter& h : hops) grants += h.grants;
  L["routing.route_calls"] = static_cast<double>(route.calls);
  L["routing.grants"] = static_cast<double>(grants);
  L["routing.calls_per_grant"] =
      grants > 0 ? static_cast<double>(route.calls) / static_cast<double>(grants) : 0.0;
  L["routing.candidates_per_call"] =
      route.calls > 0 ? static_cast<double>(route.candidates) / static_cast<double>(route.calls)
                      : 0.0;
  L["routing.route_s"] = static_cast<double>(route.nanos) * 1e-9;
  L["routing.deroute_share"] = result.avgHops > 0 ? result.avgDeroutes / result.avgHops : 0.0;

  // traffic
  const DestTally dest = Tallies::instance().destTotal();
  L["traffic.dest_calls"] = static_cast<double>(dest.calls);
  L["traffic.dest_s"] = static_cast<double>(dest.nanos) * 1e-9;
  std::uint64_t offered = 0;
  for (const hxwar::traffic::SyntheticInjector* inj : injectors) offered += inj->offeredPackets();
  L["traffic.offered_packets"] = static_cast<double>(offered);
  L["traffic.backlog_flits_end"] = static_cast<double>(net.totalSourceBacklogFlits());

  // net
  L["net.flit_moves"] = flitMoves;
  L["net.packets_created"] = static_cast<double>(net.packetsCreated());
  L["net.pool_slots"] = static_cast<double>(net.packetPoolSize());
  L["net.pool_reuse_share"] =
      net.packetsCreated() > 0
          ? static_cast<double>(net.packetPoolReuses()) / static_cast<double>(net.packetsCreated())
          : 0.0;
  L["net.bytes_per_terminal"] = net.memoryFootprint().bytesPerTerminal;
  L["net.credit_stall_ticks"] = static_cast<double>(result.routing.creditStalls);

  // metrics
  L["metrics.self_s"] = selfOf("metrics");
  L["metrics.warmup_windows"] = static_cast<double>(backend.warmupCalls());
  L["metrics.packets_measured"] = static_cast<double>(result.packetsMeasured);

  // fault (zero on fault-free workloads)
  for (const char* k : {"fault.dead_ports", "fault.unreachable_pairs", "fault.escape_share",
                        "fault.stretch", "fault.packets_dropped"}) {
    L[k] = 0.0;
  }
  if (spec.fault.active()) {
    // The escape policy reserves the top VC class; class c owns VCs v with
    // v % numClasses == c (routing::VcMap).
    const std::uint32_t classes = exp.routing().numClasses();
    double escape = 0.0;
    double all = 0.0;
    for (std::size_t v = 0; v < result.routing.grantsByVc.size(); ++v) {
      const auto g = static_cast<double>(result.routing.grantsByVc[v]);
      all += g;
      if (v % classes == classes - 1) escape += g;
    }
    L["fault.dead_ports"] = static_cast<double>(exp.faultSet().ports.size());
    L["fault.unreachable_pairs"] = static_cast<double>(result.unreachablePairs);
    L["fault.escape_share"] = all > 0 ? escape / all : 0.0;
    L["fault.stretch"] = result.avgStretch;
    L["fault.packets_dropped"] = static_cast<double>(result.packetsDropped);
  }

  // obs
  L["obs.write_s"] = selfOf("obs");
  L["obs.output_bytes"] = outputBytes;
  L["obs.trace_events"] = static_cast<double>(traceEvents);
  L["obs.windows"] = static_cast<double>(windows);

  if (!log.writeChromeTrace(spanPath)) throw hxwar::Error("cannot write " + spanPath);
  std::FILE* f = std::fopen(tablePath.c_str(), "w");
  if (f == nullptr) throw hxwar::Error("cannot write " + tablePath);
  std::fprintf(f, "# self time per layer over the traced run (wall_s = %.6f s)\n",
               out.wallSeconds);
  std::fprintf(f, "%-10s %12s %8s\n", "layer", "self_s", "share");
  double total = 0.0;
  for (const auto& [layer, s] : self) {
    std::fprintf(f, "%-10s %12.6f %7.2f%%\n", layer.c_str(), s, 100.0 * s / out.wallSeconds);
    total += s;
  }
  std::fprintf(f, "%-10s %12.6f %7.2f%%\n", "total", total, 100.0 * total / out.wallSeconds);
  std::fprintf(f, "# set-up steps (outside the run, each timed alone)\n");
  for (const Span& s : log.spans()) {
    if (s.parent == -1 && s.name != "run") {
      std::fprintf(f, "%-10s %12.6f  %s\n", s.layer.c_str(), s.dur, s.name.c_str());
    }
  }
  if (std::fclose(f) != 0) throw hxwar::Error("cannot write " + tablePath);
  return out;
}

}  // namespace perfbench
