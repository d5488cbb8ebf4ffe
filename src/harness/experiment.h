// Experiment harness: wires a simulator, a registry-built topology, routing
// algorithm, network, traffic pattern, and injector into one owned bundle.
// Every run is described by an ExperimentSpec (harness/spec.h), for every
// registered topology family (see harness/registry.h); scaleSpec() names the
// HyperX presets the benches start from.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fault/degraded_topology.h"
#include "fault/fault_controller.h"
#include "fault/fault_model.h"
#include "harness/spec.h"
#include "metrics/steady_state.h"
#include "net/network.h"
#include "obs/net_observer.h"
#include "obs/recorder.h"
#include "obs/sampler.h"
#include "routing/hyperx_routing.h"
#include "sim/backend.h"
#include "sim/par/engine.h"
#include "sim/par/shard_plan.h"
#include "sim/simulator.h"
#include "topo/hyperx.h"
#include "traffic/injector.h"
#include "traffic/pattern.h"

namespace hxwar::harness {

// One self-contained simulation instance. Construct fresh per data point so
// measurements never leak state across points.
//
// With spec.pointJobs > 1 the network is sharded across that many simulators
// (contiguous router ranges, sim/par/shard_plan.h) and run() drives the
// conservative parallel engine; sim_ becomes the control simulator hosting
// the fault controller and sampler. Every deterministic output — steady-state
// result, trace, samples, routing counters — is bit-identical to pointJobs=1.
class Experiment {
 public:
  explicit Experiment(const ExperimentSpec& spec);

  // The control simulator: the only simulator when pointJobs == 1, the
  // sampler/fault-controller host otherwise. Network components live in the
  // shard simulators when sharded — drive time through backend(), not here.
  sim::Simulator& sim() { return sim_; }
  // The base (fault-free) topology the factories built.
  const topo::Topology& topology() const { return *topo_; }
  // The topology the network actually simulates: the DegradedTopology
  // decorator when static faults are configured, the base otherwise.
  const topo::Topology& effectiveTopology() const {
    return degraded_ ? static_cast<const topo::Topology&>(*degraded_) : *topo_;
  }
  // CHECK'd downcast for HyperX-specific callers (benches, examples).
  const topo::HyperX& hyperx() const;
  net::Network& network() { return *network_; }
  // Lane-0 injector (the only one when pointJobs == 1).
  traffic::SyntheticInjector& injector() { return *injectors_[0]; }
  const std::vector<std::unique_ptr<traffic::SyntheticInjector>>& injectors() {
    return injectors_;
  }
  // Lane-0 routing instance (sharded runs build one per shard — adaptive
  // algorithms keep per-instance scratch two workers must not share).
  routing::RoutingAlgorithm& routing() { return *routing_[0]; }
  const ExperimentSpec& spec() const { return spec_; }
  // Effective shard count: spec.pointJobs clamped to the router count.
  std::uint32_t pointJobs() const { return pointJobs_; }
  // The engine that run() drives: SerialBackend over sim() when pointJobs is
  // 1, the conservative parallel engine otherwise.
  sim::SimBackend& backend() { return *backend_; }
  // Non-null only when sharded (telemetry: per-shard event counts, windows).
  sim::par::Engine* parEngine() { return engine_.get(); }
  // Fault set applied to this experiment (empty when fault-free).
  const fault::FaultSet& faultSet() const { return faultSet_; }
  const fault::DeadPortMask* deadPortMask() const {
    return spec_.fault.active() ? &mask_ : nullptr;
  }
  // Connectivity census of the degraded graph (all-connected defaults when
  // fault-free). Partition-tolerant policies surface its unreachable-pair
  // counts through SteadyStateResult; run() copies them over.
  const fault::ConnectivityReport& connectivity() const { return connectivity_; }
  // Lane-0 observability sink (the only one when pointJobs == 1); nullptr
  // when spec.obs is all-defaults or the obs layer is compiled out.
  obs::NetObserver* observer() { return observers_.empty() ? nullptr : observers_[0].get(); }
  // All per-lane observers (one per shard when sharded). Traces and routing
  // counters must be merged across them — see runSweepPoint.
  const std::vector<std::unique_ptr<obs::NetObserver>>& observers() { return observers_; }
  // Windowed flight recorder; nullptr unless spec.obs.windowed() (or the obs
  // layer is compiled out).
  obs::FlightRecorder* recorder() { return recorder_.get(); }

  // Runs warmup + measurement at the configured injection rate.
  metrics::SteadyStateResult run();

 private:
  ExperimentSpec spec_;
  sim::Simulator sim_;  // control sim when sharded, the sim otherwise
  std::uint32_t pointJobs_ = 1;
  sim::par::ShardPlan plan_;
  std::vector<std::unique_ptr<sim::Simulator>> shardSims_;
  std::unique_ptr<sim::par::Mailboxes> mail_;
  std::unique_ptr<topo::Topology> topo_;
  // Fault state. Declaration order matters: degraded_ holds references to
  // topo_ and mask_, so it must be declared (and thus destroyed) after them.
  fault::FaultSet faultSet_;
  fault::DeadPortMask mask_;
  fault::ConnectivityReport connectivity_;
  std::unique_ptr<fault::DegradedTopology> degraded_;
  std::vector<std::unique_ptr<routing::RoutingAlgorithm>> routing_;  // one per shard
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<fault::FaultController> faultCtrl_;
  std::vector<std::unique_ptr<traffic::TrafficPattern>> patterns_;   // one per lane
  std::vector<std::unique_ptr<traffic::SyntheticInjector>> injectors_;  // one per lane
  // Observability (optional): the observers outlive the sampler that polls
  // them and the network that holds raw pointers to them; all are declared
  // after network_ so teardown order is safe.
  std::vector<std::unique_ptr<obs::NetObserver>> observers_;
  std::unique_ptr<obs::Sampler> sampler_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  // Engine last: its destructor joins the workers while every component they
  // might touch is still alive.
  std::unique_ptr<sim::par::Engine> engine_;
  std::unique_ptr<sim::SimBackend> serial_;
  sim::SimBackend* backend_ = nullptr;
};

// Load-latency sweep: fresh Experiment per load. Stops early once two
// consecutive loads saturate (the curve has ended, matching how the paper's
// plots stop at saturation).
struct SweepPoint {
  double load = 0.0;
  std::size_t index = 0;  // position in the load grid (seed derivation key)
  // Crash isolation (DESIGN.md §13): a point whose simulation raises
  // hxwar::Error — e.g. a fault dead end under --fault-policy=abort — is
  // retried once with the same seeds and, if it fails again, reported as a
  // structured failed row (status="failed", message=the error text) instead
  // of tearing down the whole sweep. `result` keeps its defaults then.
  std::string status = "ok";
  std::string message;
  bool failed() const { return status != "ok"; }
  metrics::SteadyStateResult result;
  // Perf telemetry for this point. Wall-clock values vary run to run; every
  // field of `result` is deterministic given (spec, load, index).
  double wallSeconds = 0.0;
  std::uint64_t eventsProcessed = 0;
  double eventsPerSec = 0.0;
  // Effective intra-point shard count (spec.pointJobs clamped to the router
  // count). Telemetry only — results are pointJobs-invariant.
  std::uint32_t pointJobs = 1;
  // Observability captures (empty unless the spec enables them). Deterministic
  // like `result`: trace sampling keys on packet ids, sampler rows on ticks.
  obs::TraceBuffer trace;
  std::vector<obs::SampleRow> samples;
  // Flight-recorder captures (empty unless spec.obs.windowed()). `windows` is
  // jobs- AND point-jobs-invariant; `shardWindows` is jobs-invariant but its
  // shape follows the shard count (empty on serial runs) — it feeds the
  // metrics-json shard_balance section, never --timeline-out.
  std::vector<obs::WindowRecord> windows;
  std::vector<obs::ShardWindowRecord> shardWindows;
};

// Derives the per-point configuration for point `index` at `load`. Seeds are
// expanded from (base seed, point index) only — never from thread identity or
// execution order — so a sweep replays identically at any parallelism.
ExperimentSpec sweepPointConfig(const ExperimentSpec& base, double load,
                                std::size_t index);

// Builds and runs one sweep point, recording wall time and event throughput.
SweepPoint runSweepPoint(const ExperimentSpec& base, double load, std::size_t index);

std::vector<SweepPoint> loadLatencySweep(const ExperimentSpec& base,
                                         const std::vector<double>& loads,
                                         bool stopAtSaturation = true);

// Accepted throughput at (near-)full offered load — the Fig. 6g metric.
double saturationThroughput(const ExperimentSpec& base, double offered = 1.0);

// Uniform load grid [step, step*2, ..., <= max].
std::vector<double> loadGrid(double step, double max);

}  // namespace hxwar::harness
