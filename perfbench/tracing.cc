#include "tracing.h"

#include <cstdio>
#include <memory>
#include <numeric>

#include "harness/registry.h"

namespace perfbench {
namespace {

using hxwar::harness::ExperimentRegistry;

std::uint64_t nanosSince(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

// Forwards to the real algorithm, timing each route() call. Two clock reads
// per call are the tracing overhead trace.overhead reports.
class TracedRouting final : public hxwar::routing::RoutingAlgorithm {
 public:
  TracedRouting(std::unique_ptr<hxwar::routing::RoutingAlgorithm> inner, RouteTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  void route(const hxwar::routing::RouteContext& ctx, hxwar::net::Packet& pkt,
             std::vector<hxwar::routing::Candidate>& out) override {
    const std::size_t before = out.size();
    const Clock::time_point t0 = Clock::now();
    inner_->route(ctx, pkt, out);
    tally_.nanos += nanosSince(t0);
    tally_.calls += 1;
    tally_.candidates += out.size() - before;
  }
  std::uint32_t numClasses() const override { return inner_->numClasses(); }
  hxwar::routing::AlgorithmInfo info() const override { return inner_->info(); }

 private:
  std::unique_ptr<hxwar::routing::RoutingAlgorithm> inner_;
  RouteTally& tally_;
};

class TracedPattern final : public hxwar::traffic::TrafficPattern {
 public:
  TracedPattern(std::unique_ptr<hxwar::traffic::TrafficPattern> inner, DestTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  std::string name() const override { return inner_->name(); }
  hxwar::NodeId dest(hxwar::NodeId src, hxwar::Rng& rng) override {
    const Clock::time_point t0 = Clock::now();
    const hxwar::NodeId d = inner_->dest(src, rng);
    tally_.nanos += nanosSince(t0);
    tally_.calls += 1;
    return d;
  }

 private:
  std::unique_ptr<hxwar::traffic::TrafficPattern> inner_;
  DestTally& tally_;
};

std::string traced(const std::string& name) { return "traced-" + name; }

std::function<std::unique_ptr<hxwar::routing::RoutingAlgorithm>(const hxwar::topo::Topology&,
                                                                 const hxwar::Flags&)>
tracedRoutingFactory(std::string name) {
  return [name](const hxwar::topo::Topology& topo, const hxwar::Flags& params) {
    auto inner = ExperimentRegistry::instance().routing("hyperx", name).build(topo, params);
    return std::make_unique<TracedRouting>(std::move(inner), Tallies::instance().newRoute());
  };
}

std::function<std::unique_ptr<hxwar::traffic::TrafficPattern>(const hxwar::topo::Topology&,
                                                               std::uint64_t)>
tracedPatternFactory(std::string name) {
  return [name](const hxwar::topo::Topology& topo, std::uint64_t seed) {
    auto inner = ExperimentRegistry::instance().pattern(name).build(topo, seed);
    return std::make_unique<TracedPattern>(std::move(inner), Tallies::instance().newDest());
  };
}

// Decorators for the algorithms and patterns the workloads use.
HXWAR_REGISTER_ROUTING(({"hyperx", "traced-dimwar", "", false, tracedRoutingFactory("dimwar")}));
HXWAR_REGISTER_ROUTING(({"hyperx", "traced-omniwar", "", false,
                         tracedRoutingFactory("omniwar")}));
HXWAR_REGISTER_ROUTING(({"hyperx", "traced-ftar", "", false, tracedRoutingFactory("ftar")}));
HXWAR_REGISTER_PATTERN(({"traced-ur", "uniform random, timed", tracedPatternFactory("ur")}));
HXWAR_REGISTER_PATTERN(({"traced-urby", "bisection in dim 1, timed",
                         tracedPatternFactory("urby")}));

}  // namespace

Tallies& Tallies::instance() {
  static Tallies tallies;
  return tallies;
}

RouteTally Tallies::routeTotal() const {
  RouteTally t;
  for (const RouteTally& r : route_) {
    t.calls += r.calls;
    t.candidates += r.candidates;
    t.nanos += r.nanos;
  }
  return t;
}

DestTally Tallies::destTotal() const {
  DestTally t;
  for (const DestTally& d : dest_) {
    t.calls += d.calls;
    t.nanos += d.nanos;
  }
  return t;
}

hxwar::harness::ExperimentSpec tracedSpec(const hxwar::harness::ExperimentSpec& spec) {
  hxwar::harness::ExperimentSpec t = spec;
  t.routing = traced(spec.routing);
  t.pattern = traced(spec.pattern);
  return t;
}

int SpanLog::begin(const std::string& name, const std::string& layer, int parent) {
  const Clock::time_point now = Clock::now();
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = parent;
  s.start = std::chrono::duration<double>(now - origin_).count();
  spans_.push_back(std::move(s));
  open_.push_back(now);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  const auto i = static_cast<std::size_t>(id);
  spans_[i].dur = std::chrono::duration<double>(Clock::now() - open_[i]).count();
}

bool SpanLog::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fputs("{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":", f);
    writeJsonString(f, s.name);
    std::fputs(",\"cat\":", f);
    writeJsonString(f, s.layer);
    std::fprintf(f, ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d", s.start * 1e6,
                 s.dur * 1e6, i, s.parent);
    for (const auto& [key, value] : s.args) {
      std::fputc(',', f);
      writeJsonString(f, key);
      std::fprintf(f, ":%.17g", value);
    }
    std::fputs(i + 1 < spans_.size() ? "}},\n" : "}}\n", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

Values SpanLog::selfTimeByLayer(int root) const {
  // A span belongs to the subtree when its parent chain reaches `root`;
  // parents always precede children in spans_.
  std::vector<bool> inTree(spans_.size(), false);
  Values self;
  for (std::size_t i = static_cast<std::size_t>(root); i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    inTree[i] = static_cast<int>(i) == root ||
                (s.parent >= 0 && inTree[static_cast<std::size_t>(s.parent)]);
    if (!inTree[i]) continue;
    double own = s.dur;
    for (const auto& [key, value] : s.args) {
      const std::size_t colon = key.find(":wall_s");
      if (colon == std::string::npos) continue;
      self[key.substr(0, colon)] += value;
      own -= value;
    }
    self[s.layer] += own;
    if (static_cast<int>(i) != root) self[spans_[static_cast<std::size_t>(s.parent)].layer] -= s.dur;
  }
  return self;
}

TimedBackend::TimedBackend(hxwar::sim::SimBackend& inner, const hxwar::sim::par::Engine* engine,
                           SpanLog& log, int parent,
                           const hxwar::metrics::SteadyStateConfig& steady,
                           const std::vector<HopCounter>& hops)
    : inner_(inner), engine_(engine), log_(log), parent_(parent), steady_(steady), hops_(hops) {}

void TimedBackend::run(hxwar::Tick until) {
  // runSteadyState advances warmup windows by warmupWindow, the measurement
  // by measureWindow (the workloads keep the two distinct), then drains.
  std::string name;
  if (phase_ == Phase::kWarmup && until - inner_.now() == steady_.measureWindow) {
    phase_ = Phase::kMeasure;
    name = "backend.run measure";
  } else if (phase_ == Phase::kWarmup) {
    name = "backend.run warmup " + std::to_string(warmupCalls_++);
  } else {
    phase_ = Phase::kDrain;
    name = "backend.run drain " + std::to_string(drainCalls_++);
  }

  const Tallies& tallies = Tallies::instance();
  const RouteTally route0 = tallies.routeTotal();
  const DestTally dest0 = tallies.destTotal();
  const auto grantsNow = [this] {
    std::uint64_t g = 0;
    for (const HopCounter& h : hops_) g += h.grants;
    return g;
  };
  const std::uint64_t grants0 = grantsNow();
  const std::uint64_t events0 = inner_.eventsProcessed();
  const auto barrierNow = [this] {
    if (engine_ == nullptr) return 0.0;
    const std::vector<double> w = engine_->workerBarrierWaitSeconds();
    return std::accumulate(w.begin(), w.end(), 0.0);
  };
  const double barrier0 = barrierNow();

  const int id = log_.begin(name, "sim", parent_);
  inner_.run(until);
  log_.end(id);

  const RouteTally route1 = tallies.routeTotal();
  const DestTally dest1 = tallies.destTotal();
  // Route and dest calls run on every worker at once when sharded: their
  // summed time is charged to this span's wall time as the per-worker mean,
  // like the barrier wait, so the self-time table stays additive.
  const double workers =
      engine_ == nullptr ? 1.0 : static_cast<double>(engine_->numShards());
  const double routeS = static_cast<double>(route1.nanos - route0.nanos) * 1e-9;
  const double destS = static_cast<double>(dest1.nanos - dest0.nanos) * 1e-9;
  const double barrierS = barrierNow() - barrier0;
  Span& s = log_.span(id);
  s.args = {
      {"route_calls", static_cast<double>(route1.calls - route0.calls)},
      {"route_s", routeS},
      {"dest_calls", static_cast<double>(dest1.calls - dest0.calls)},
      {"dest_s", destS},
      {"grants", static_cast<double>(grantsNow() - grants0)},
      {"events", static_cast<double>(inner_.eventsProcessed() - events0)},
      {"routing:wall_s", routeS / workers},
      {"traffic:wall_s", destS / workers},
  };
  if (engine_ != nullptr) {
    s.args.emplace_back("barrier_wait_s", barrierS);
    s.args.emplace_back("sim/par:wall_s", barrierS / workers);
  }
  runSeconds_ += s.dur;
}

}  // namespace perfbench
