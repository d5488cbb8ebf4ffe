#include "harness/spec.h"

#include <charconv>
#include <cstdlib>
#include <set>
#include <sstream>

#include "common/assert.h"

namespace hxwar::harness {

std::string formatDouble(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

namespace {

std::uint32_t u32Flag(const Flags& flags, const std::string& key, std::uint32_t fallback) {
  return static_cast<std::uint32_t>(flags.u64(key, fallback));
}

// Flags parsed into the structured sub-configs (plus the operational keys of
// the bench/hxsim front ends); everything else is a construction parameter
// and flows into ExperimentSpec::params for the registry factories.
const std::set<std::string>& structuredKeys() {
  static const std::set<std::string> keys = {
      // spec-level
      "topology", "routing", "pattern", "pattern-seed",
      // network / router
      "channel-latency", "terminal-latency", "net-seed", "vcs", "input-buffer",
      "output-queue", "xbar-latency", "speedup", "bias", "vct", "arbiter",
      // injection
      "load", "seed", "min-flits", "max-flits",
      // steady state
      "warmup-window", "warmup-windows", "measure-window", "drain-window",
      "stable-windows", "stability-tol", "backlog-growth-tol", "accepted-tol",
      "min-measure-packets",
      // fault injection
      "fault-rate", "fault-seed", "fault-links", "fault-routers", "fault-at",
      "fault-until", "fault-policy",
      // front-end operational keys, never part of an experiment's identity
      "loads", "csv", "jobs", "point-jobs", "perf-json", "experiment", "config",
      "scale", "algorithms", "list",
      // observability (operational; omitted from serialize())
      "trace-out", "trace-sample", "metrics-json", "sample-interval",
      "stall-window", "window-ticks", "timeline-out"};
  return keys;
}

}  // namespace

std::vector<std::uint32_t> flagU32List(const Flags& flags, const std::string& key,
                                       std::vector<std::uint32_t> fallback) {
  if (!flags.has(key)) return fallback;
  const std::string raw = flags.str(key, "");
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos < raw.size()) {
    std::size_t comma = raw.find(',', pos);
    if (comma == std::string::npos) comma = raw.size();
    const std::string token = raw.substr(pos, comma - pos);
    pos = comma + 1;
    bool ok = !token.empty();
    for (const char c : token) ok = ok && c >= '0' && c <= '9';
    unsigned long long value = 0;
    if (ok) {
      value = std::strtoull(token.c_str(), nullptr, 10);
      ok = value <= 0xffffffffull;
    }
    HXWAR_CHECK_MSG(ok, ("flag " + key + "=" + raw + ": entry '" + token +
                         "' is not a non-negative integer")
                            .c_str());
    out.push_back(static_cast<std::uint32_t>(value));
  }
  return out.empty() ? fallback : out;
}

net::NetworkConfig networkConfigFromFlags(const Flags& flags, net::NetworkConfig d) {
  d.channelLatencyRouter = flags.u64("channel-latency", d.channelLatencyRouter);
  d.channelLatencyTerminal = flags.u64("terminal-latency", d.channelLatencyTerminal);
  d.rngSeed = flags.u64("net-seed", d.rngSeed);
  d.router.numVcs = u32Flag(flags, "vcs", d.router.numVcs);
  d.router.inputBufferDepth = u32Flag(flags, "input-buffer", d.router.inputBufferDepth);
  d.router.outputQueueDepth = u32Flag(flags, "output-queue", d.router.outputQueueDepth);
  d.router.crossbarLatency = u32Flag(flags, "xbar-latency", d.router.crossbarLatency);
  d.router.inputSpeedup = u32Flag(flags, "speedup", d.router.inputSpeedup);
  d.router.weightBias = flags.f64("bias", d.router.weightBias);
  d.router.virtualCutThrough = flags.b("vct", d.router.virtualCutThrough);
  const std::string arb = flags.str(
      "arbiter", d.router.arbiter == net::ArbiterPolicy::kAgeBased ? "age" : "rr");
  HXWAR_CHECK_MSG(arb == "age" || arb == "rr", "arbiter must be age or rr");
  d.router.arbiter =
      arb == "age" ? net::ArbiterPolicy::kAgeBased : net::ArbiterPolicy::kRoundRobin;
  return d;
}

metrics::SteadyStateConfig steadyConfigFromFlags(const Flags& flags,
                                                 metrics::SteadyStateConfig d) {
  d.warmupWindow = flags.u64("warmup-window", d.warmupWindow);
  d.maxWarmupWindows = u32Flag(flags, "warmup-windows", d.maxWarmupWindows);
  d.stableWindows = u32Flag(flags, "stable-windows", d.stableWindows);
  d.stabilityTol = flags.f64("stability-tol", d.stabilityTol);
  d.backlogGrowthTol = flags.f64("backlog-growth-tol", d.backlogGrowthTol);
  d.acceptedTol = flags.f64("accepted-tol", d.acceptedTol);
  d.measureWindow = flags.u64("measure-window", d.measureWindow);
  d.drainWindow = flags.u64("drain-window", d.drainWindow);
  d.minMeasurePackets = flags.u64("min-measure-packets", d.minMeasurePackets);
  return d;
}

traffic::SyntheticInjector::Params injectionFromFlags(
    const Flags& flags, traffic::SyntheticInjector::Params d) {
  d.rate = flags.f64("load", d.rate);
  d.minFlits = u32Flag(flags, "min-flits", d.minFlits);
  d.maxFlits = u32Flag(flags, "max-flits", d.maxFlits);
  d.seed = flags.u64("seed", d.seed);
  return d;
}

fault::FaultSpec faultSpecFromFlags(const Flags& flags, fault::FaultSpec d) {
  d.rate = flags.f64("fault-rate", d.rate);
  d.seed = flags.u64("fault-seed", d.seed);
  if (flags.has("fault-links")) d.links = flags.str("fault-links", d.links);
  if (flags.has("fault-routers")) d.routers = flags.str("fault-routers", d.routers);
  if (flags.has("fault-at")) d.at = flags.u64("fault-at", d.at);
  if (flags.has("fault-until")) d.until = flags.u64("fault-until", d.until);
  if (flags.has("fault-policy")) {
    const std::string name = flags.str("fault-policy", "abort");
    HXWAR_CHECK_MSG(
        fault::parseFaultPolicy(name, &d.policy),
        ("fault-policy must be abort, drop, retry, or escape; got " + name).c_str());
  }
  return d;
}

obs::ObsOptions obsOptionsFromFlags(const Flags& flags, obs::ObsOptions d) {
  if (flags.has("trace-out")) d.traceOut = flags.str("trace-out", d.traceOut);
  if (flags.has("metrics-json")) d.metricsJson = flags.str("metrics-json", d.metricsJson);
  d.traceSample = flags.u64("trace-sample", d.traceSample);
  HXWAR_CHECK_MSG(d.traceSample > 0, "trace-sample must be >= 1");
  d.sampleInterval = flags.u64("sample-interval", d.sampleInterval);
  d.stallWindow = flags.u64("stall-window", d.stallWindow);
  if (flags.has("timeline-out")) d.timelineOut = flags.str("timeline-out", d.timelineOut);
  d.windowTicks = flags.u64("window-ticks", d.windowTicks);
  // A timeline destination implies recording; pick a sane default cadence.
  if (!d.timelineOut.empty() && d.windowTicks == 0) d.windowTicks = 1000;
  return d;
}

ExperimentSpec::ExperimentSpec() {
  // The builder/hxsim defaults (harness/builder.h): short channels, deep
  // buffers, a quick steady-state schedule.
  net.channelLatencyRouter = 8;
  net.channelLatencyTerminal = 1;
  net.rngSeed = 1;
  net.router.numVcs = 8;
  net.router.inputBufferDepth = 48;
  net.router.outputQueueDepth = 32;
  net.router.crossbarLatency = 4;
  net.router.inputSpeedup = 4;
  steady.maxWarmupWindows = 20;
  steady.measureWindow = 3000;
  steady.drainWindow = 8000;
  patternSeed = 7;
}

ExperimentSpec ExperimentSpec::fromFlags(const Flags& flags) {
  // --scale=tiny|small|paper seeds the spec from a named preset (topology,
  // buffering, latencies, steady-state windows); explicit flags then override
  // individual fields on top of it.
  ExperimentSpec spec;
  if (flags.has("scale")) spec = scaleSpec(flags.str("scale", "small"));
  spec.applyFlags(flags);
  return spec;
}

void ExperimentSpec::applyFlags(const Flags& flags) {
  if (flags.has("topology")) topology = flags.str("topology", topology);
  if (flags.has("routing")) routing = flags.str("routing", routing);
  if (flags.has("pattern")) pattern = flags.str("pattern", pattern);
  net = networkConfigFromFlags(flags, net);
  steady = steadyConfigFromFlags(flags, steady);
  injection = injectionFromFlags(flags, injection);
  fault = faultSpecFromFlags(flags, fault);
  obs = obsOptionsFromFlags(flags, obs);
  pointJobs = u32Flag(flags, "point-jobs", pointJobs);
  HXWAR_CHECK_MSG(pointJobs >= 1, "point-jobs must be >= 1");
  if (flags.has("pattern-seed")) {
    patternSeed = flags.u64("pattern-seed", patternSeed);
  } else if (flags.has("seed")) {
    patternSeed = flags.u64("seed", patternSeed);
  }
  for (const auto& [key, value] : flags.all()) {
    if (structuredKeys().count(key) == 0) params[key] = value;
  }
}

Flags ExperimentSpec::paramFlags() const {
  Flags flags;
  for (const auto& [key, value] : params) flags.set(key, value);
  return flags;
}

std::string ExperimentSpec::serialize() const {
  std::ostringstream out;
  out << "topology = " << topology << "\n";
  if (!routing.empty()) out << "routing = " << routing << "\n";
  out << "pattern = " << pattern << "\n";
  out << "pattern-seed = " << patternSeed << "\n";
  out << "channel-latency = " << net.channelLatencyRouter << "\n";
  out << "terminal-latency = " << net.channelLatencyTerminal << "\n";
  out << "net-seed = " << net.rngSeed << "\n";
  out << "vcs = " << net.router.numVcs << "\n";
  out << "input-buffer = " << net.router.inputBufferDepth << "\n";
  out << "output-queue = " << net.router.outputQueueDepth << "\n";
  out << "xbar-latency = " << net.router.crossbarLatency << "\n";
  out << "speedup = " << net.router.inputSpeedup << "\n";
  out << "bias = " << formatDouble(net.router.weightBias) << "\n";
  out << "vct = " << (net.router.virtualCutThrough ? "true" : "false") << "\n";
  out << "arbiter = "
      << (net.router.arbiter == net::ArbiterPolicy::kAgeBased ? "age" : "rr") << "\n";
  out << "load = " << formatDouble(injection.rate) << "\n";
  out << "min-flits = " << injection.minFlits << "\n";
  out << "max-flits = " << injection.maxFlits << "\n";
  out << "seed = " << injection.seed << "\n";
  out << "warmup-window = " << steady.warmupWindow << "\n";
  out << "warmup-windows = " << steady.maxWarmupWindows << "\n";
  out << "stable-windows = " << steady.stableWindows << "\n";
  out << "stability-tol = " << formatDouble(steady.stabilityTol) << "\n";
  out << "backlog-growth-tol = " << formatDouble(steady.backlogGrowthTol) << "\n";
  out << "accepted-tol = " << formatDouble(steady.acceptedTol) << "\n";
  out << "measure-window = " << steady.measureWindow << "\n";
  out << "drain-window = " << steady.drainWindow << "\n";
  out << "min-measure-packets = " << steady.minMeasurePackets << "\n";
  if (fault.active()) {
    // Fault keys appear only when faults are configured, keeping faultless
    // spec text byte-identical to pre-fault builds of this serializer.
    if (fault.rate > 0.0) out << "fault-rate = " << formatDouble(fault.rate) << "\n";
    out << "fault-seed = " << fault.seed << "\n";
    if (!fault.links.empty()) out << "fault-links = " << fault.links << "\n";
    if (!fault.routers.empty()) out << "fault-routers = " << fault.routers << "\n";
    if (fault.at != kTickInvalid) out << "fault-at = " << fault.at << "\n";
    if (fault.until != kTickInvalid) out << "fault-until = " << fault.until << "\n";
    // The policy line appears only when set, so pre-ladder spec text
    // round-trips byte-identically.
    if (fault.policy != fault::FaultPolicy::kAbort) {
      out << "fault-policy = " << fault::faultPolicyName(fault.policy) << "\n";
    }
  }
  for (const auto& [key, value] : params) {
    if (structuredKeys().count(key) == 0) out << key << " = " << value << "\n";
  }
  return out.str();
}

namespace {

// A HyperX preset starts from the raw component defaults, not from the builder
// defaults ExperimentSpec() installs: a preset names every knob it changes,
// and the tiny preset keeps the router's default 2x input speedup.
ExperimentSpec hyperxPreset(const std::string& widths, std::uint32_t terminals) {
  ExperimentSpec spec;
  spec.routing = "dimwar";
  spec.net = net::NetworkConfig{};
  spec.steady = metrics::SteadyStateConfig{};
  spec.params["widths"] = widths;
  spec.params["terminals"] = std::to_string(terminals);
  spec.params["ugal-bias"] = "1";
  return spec;
}

}  // namespace

ExperimentSpec scaleSpec(const std::string& name) {
  if (name == "tiny") {
    // 3x3, K=2 (18 nodes): unit and property tests.
    ExperimentSpec spec = hyperxPreset("3,3", 2);
    spec.net.channelLatencyRouter = 4;
    spec.net.channelLatencyTerminal = 1;
    spec.net.router.numVcs = 8;
    spec.net.router.inputBufferDepth = 12;
    spec.net.router.outputQueueDepth = 4;
    spec.net.router.crossbarLatency = 2;
    spec.steady.warmupWindow = 500;
    spec.steady.maxWarmupWindows = 30;
    spec.steady.measureWindow = 2000;
    spec.steady.drainWindow = 10000;
    return spec;
  }
  if (name == "small") {
    // 4x4x4, K=4 (256 nodes), short channels: the default for benches and tests.
    ExperimentSpec spec = hyperxPreset("4,4,4", 4);
    spec.net.channelLatencyRouter = 8;
    spec.net.channelLatencyTerminal = 1;
    spec.net.router.numVcs = 8;
    spec.net.router.inputBufferDepth = 48;  // > credit round trip (2*8 + pipeline) + max packet
    spec.net.router.outputQueueDepth = 32;
    spec.net.router.crossbarLatency = 4;
    spec.net.router.inputSpeedup = 4;
    spec.steady.warmupWindow = 1000;
    spec.steady.maxWarmupWindows = 18;
    spec.steady.measureWindow = 3000;
    spec.steady.drainWindow = 8000;
    return spec;
  }
  HXWAR_CHECK_MSG(name == "paper", ("unknown scale preset: " + name).c_str());
  // The paper's 4,096-node 3D HyperX: 8x8x8, 8 terminals per router, 8 VCs,
  // 50 ns (= 50 cycle) router-to-router channels and crossbar, 5 ns terminal
  // channels, buffering beyond the credit round trip.
  ExperimentSpec spec = hyperxPreset("8,8,8", 8);
  spec.net.channelLatencyRouter = 50;
  spec.net.channelLatencyTerminal = 5;
  spec.net.router.numVcs = 8;
  spec.net.router.inputBufferDepth = 160;  // credit RTT ~ 2*50 + pipeline, plus a packet
  spec.net.router.outputQueueDepth = 32;
  spec.net.router.crossbarLatency = 50;
  spec.net.router.inputSpeedup = 4;
  spec.steady.warmupWindow = 5000;
  spec.steady.maxWarmupWindows = 60;
  spec.steady.measureWindow = 20000;
  spec.steady.drainWindow = 100000;
  return spec;
}

}  // namespace hxwar::harness
