// Outside-in tracing seams for the traced pass.
//
// Nothing here changes simulator code. Routing and pattern decorators are
// ordinary registry entries ("traced-<name>") that build the real instance
// and forward to it; the harness builds one per lane, so every decorator owns
// its own tally and no counter is shared across worker threads. Tallies are
// read only while the backend is parked between run() calls and summed in
// lane order.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core.h"
#include "harness/spec.h"
#include "net/listener.h"
#include "sim/backend.h"
#include "sim/par/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Per-instance counts of one routing decorator.
struct RouteTally {
  std::uint64_t calls = 0;
  std::uint64_t candidates = 0;
  std::uint64_t nanos = 0;
};

// Per-instance counts of one pattern decorator.
struct DestTally {
  std::uint64_t calls = 0;
  std::uint64_t nanos = 0;
};

// The decorators' tallies, one per built instance. Registry factories cannot
// carry state, so they allocate here; reset() before each traced build.
class Tallies {
 public:
  static Tallies& instance();

  RouteTally& newRoute() { return route_.emplace_back(); }
  DestTally& newDest() { return dest_.emplace_back(); }
  void reset() {
    route_.clear();
    dest_.clear();
  }

  std::size_t routeInstances() const { return route_.size(); }
  std::size_t destInstances() const { return dest_.size(); }
  RouteTally routeTotal() const;
  DestTally destTotal() const;

 private:
  std::deque<RouteTally> route_;  // deque: stable addresses while growing
  std::deque<DestTally> dest_;
};

// The spec with its routing and pattern swapped for their decorators.
// Aborts (registry CHECK) for names without a registered decorator.
hxwar::harness::ExperimentSpec tracedSpec(const hxwar::harness::ExperimentSpec& spec);

// Counts switch-allocation grants of head flits on one lane.
class HopCounter final : public hxwar::net::NetListener {
 public:
  void onHop(const hxwar::net::Packet&, hxwar::RouterId, hxwar::PortId, hxwar::PortId,
             hxwar::Tick) override {
    grants += 1;
  }
  std::uint64_t grants = 0;
};

// A span: one timed call at a layer boundary. `parent` indexes the span that
// made the call (-1 for roots). Per-call layers inside a span (route, dest,
// hop) are carried as aggregate args, not as spans of their own.
struct Span {
  std::string name;
  std::string layer;
  int parent = -1;
  double start = 0.0;  // seconds since the log's origin
  double dur = 0.0;
  std::vector<std::pair<std::string, double>> args;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int begin(const std::string& name, const std::string& layer, int parent);
  void end(int id);
  Span& span(int id) { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  // Chrome-trace JSON ("X" complete events), the format --trace-out uses.
  bool writeChromeTrace(const std::string& path) const;

  // Self time per layer over the subtree rooted at `root`: each span's
  // duration minus its children's and minus the aggregate child times it
  // carries in args named "<layer>:wall_s". Adds up to the root's duration.
  Values selfTimeByLayer(int root) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Clock::time_point> open_;
};

// SimBackend wrapper that records one span per run(until) call, labelled
// warmup / measure / drain from runSteadyState's call pattern, with the
// decorator tallies' and hop counters' deltas over the call as args.
class TimedBackend final : public hxwar::sim::SimBackend {
 public:
  // `engine` is the parallel engine behind `inner` when sharded, else null.
  TimedBackend(hxwar::sim::SimBackend& inner, const hxwar::sim::par::Engine* engine,
               SpanLog& log, int parent, const hxwar::metrics::SteadyStateConfig& steady,
               const std::vector<HopCounter>& hops);

  hxwar::Tick now() const override { return inner_.now(); }
  void run(hxwar::Tick until) override;
  std::uint64_t eventsProcessed() const override { return inner_.eventsProcessed(); }
  bool busy() const override { return inner_.busy(); }

  double runSeconds() const { return runSeconds_; }
  std::uint32_t warmupCalls() const { return warmupCalls_; }

 private:
  enum class Phase { kWarmup, kMeasure, kDrain };

  hxwar::sim::SimBackend& inner_;
  const hxwar::sim::par::Engine* engine_;
  SpanLog& log_;
  int parent_;
  hxwar::metrics::SteadyStateConfig steady_;
  const std::vector<HopCounter>& hops_;
  Phase phase_ = Phase::kWarmup;
  std::uint32_t warmupCalls_ = 0;
  std::uint32_t drainCalls_ = 0;
  double runSeconds_ = 0.0;
};

}  // namespace perfbench
