#include "harness/experiment.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/assert.h"
#include "common/error.h"
#include "common/rng.h"
#include "harness/registry.h"

namespace hxwar::harness {

Experiment::Experiment(const ExperimentSpec& spec) : spec_(spec) {
  auto& registry = ExperimentRegistry::instance();
  const Flags params = spec_.paramFlags();
  const TopologyFamily& family = registry.topology(spec_.topology);
  topo_ = family.build(params);

  net::NetworkConfig netCfg = spec_.net;
  if (spec_.fault.active()) {
    faultSet_ = fault::buildFaultSet(*topo_, spec_.fault);
    std::uint32_t maxPorts = 0;
    for (RouterId r = 0; r < topo_->numRouters(); ++r) {
      maxPorts = std::max(maxPorts, topo_->numPorts(r));
    }
    mask_.resize(topo_->numRouters(), maxPorts);
    const bool allowPartition = spec_.fault.toleratesPartition();
    if (spec_.fault.transient()) {
      // Transient window: the network wires the full topology and the
      // controller flips the shared mask at the scheduled cycles. Under the
      // abort policy, validate upfront that the degraded phase would stay
      // connected — a partition is a configuration error whether it lasts one
      // cycle or the whole run. The softer policies accept it and report the
      // census as metrics instead (DESIGN.md §13).
      fault::DeadPortMask preview(topo_->numRouters(), maxPorts);
      preview.apply(faultSet_.ports);
      connectivity_ = fault::checkConnectivity(*topo_, preview);
      if (!allowPartition) {
        HXWAR_CHECK_MSG(connectivity_.connected, connectivity_.message.c_str());
      }
    } else {
      // Static faults: failures are structural. Under the abort policy the
      // DegradedTopology rejects partitioned fault sets in its constructor;
      // partition-tolerant policies build the (possibly disconnected)
      // degraded graph and the Network simply never wires the dead channels.
      mask_.apply(faultSet_.ports);
      degraded_ = std::make_unique<fault::DegradedTopology>(*topo_, mask_, allowPartition);
      connectivity_ = degraded_->connectivity();
    }
    netCfg.router.faultPolicy = spec_.fault.effectivePolicy();
  }

  // Shard plan: contiguous router ID ranges (HyperX numbering makes these
  // dimension-0 slices). pointJobs clamps to the router count; one shard is
  // the exact legacy serial construction.
  pointJobs_ = std::max<std::uint32_t>(1, std::min<std::uint32_t>(
                                              spec_.pointJobs, topo_->numRouters()));

  // Routing algorithms build against the *base* topology: coordinate math is
  // unaffected by missing links, and faults reach them via the dead-port mask.
  // One instance per shard: adaptive algorithms keep mutable scratch (masked
  // route caches) that two workers must not share.
  const std::string algo = spec_.routing.empty() ? family.defaultRouting : spec_.routing;
  net::ShardLayout layout;
  if (pointJobs_ == 1) {
    layout.sims.push_back(&sim_);
  } else {
    plan_ = sim::par::contiguousShards(topo_->numRouters(), pointJobs_);
    pointJobs_ = plan_.numShards;
    mail_ = std::make_unique<sim::par::Mailboxes>(pointJobs_);
    layout.plan = &plan_;
    layout.mail = mail_.get();
    for (std::uint32_t s = 0; s < pointJobs_; ++s) {
      shardSims_.push_back(std::make_unique<sim::Simulator>());
      layout.sims.push_back(shardSims_.back().get());
    }
  }
  for (std::uint32_t s = 0; s < pointJobs_; ++s) {
    routing_.push_back(registry.routing(family.name, algo).build(*topo_, params));
    layout.routing.push_back(routing_.back().get());
  }
  network_ = std::make_unique<net::Network>(layout, effectiveTopology(), netCfg);
  if (spec_.fault.active()) {
    network_->setDeadPortMask(&mask_);
    if (spec_.fault.transient()) {
      // The controller lives in sim_ — the control simulator when sharded.
      // The parallel engine runs control events below kEpsControl only after
      // every shard has finished all strictly-earlier ticks, so the mask flip
      // precedes all same-tick routing reads exactly as in the serial order.
      faultCtrl_ = std::make_unique<fault::FaultController>(sim_, mask_, faultSet_,
                                                            spec_.fault.at, spec_.fault.until);
    }
  }

  // One injector per lane, each driving its shard's terminals from its
  // shard's simulator. Injection decisions are a pure per-node function of
  // (seed, node) — see traffic/injector.h — so the union of the per-shard
  // injections equals the serial injector's stream exactly. Patterns are
  // per-lane instances of the same (pattern, seed) pair: identical tables,
  // no cross-thread sharing.
  for (std::uint32_t l = 0; l < network_->numLanes(); ++l) {
    patterns_.push_back(registry.pattern(spec_.pattern).build(*topo_, spec_.patternSeed));
    traffic::SyntheticInjector::Params inj = spec_.injection;
    if (network_->numLanes() > 1) {
      for (NodeId n = 0; n < network_->numNodes(); ++n) {
        if (network_->laneOfNode(n) == l) inj.nodes.push_back(n);
      }
    }
    injectors_.push_back(std::make_unique<traffic::SyntheticInjector>(
        *layout.sims[l], *network_, *patterns_[l], inj));
  }

  if constexpr (obs::kCompiledIn) {
    if (spec_.obs.enabled()) {
      // One observer per lane (hot-path hooks must never cross threads).
      // Lane 0 is the primary: it owns the gauge registry the sampler polls
      // (gauges read lane-summed network totals, so the rows are shard-count
      // invariant) and collects the sampler rows; traces and routing counters
      // are merged across all lanes after the run.
      std::vector<obs::NetObserver*> raw;
      for (std::uint32_t l = 0; l < network_->numLanes(); ++l) {
        observers_.push_back(std::make_unique<obs::NetObserver>(
            effectiveTopology(), spec_.net.router.numVcs, spec_.obs));
        raw.push_back(observers_.back().get());
      }
      network_->setObservers(raw);
      // Pull gauges over the network's aggregate counters (polled at sampler
      // cadence / diagnostic dumps only, so the per-call cost is irrelevant).
      net::Network* net = network_.get();
      obs::Registry& reg = observers_[0]->registry();
      reg.gauge(obs::gauges::kFlitsInjected,
                [net] { return static_cast<double>(net->flitsInjected()); });
      reg.gauge(obs::gauges::kFlitsEjected,
                [net] { return static_cast<double>(net->flitsEjected()); });
      reg.gauge(obs::gauges::kFlitMovements,
                [net] { return static_cast<double>(net->flitMovements()); });
      reg.gauge(obs::gauges::kBacklogFlits,
                [net] { return static_cast<double>(net->totalSourceBacklogFlits()); });
      reg.gauge(obs::gauges::kQueuedFlits, [net] {
        std::uint64_t queued = 0;
        for (RouterId r = 0; r < net->numRouters(); ++r) {
          queued += net->router(r).bufferedFlits();
        }
        return static_cast<double>(queued);
      });
      reg.gauge(obs::gauges::kPacketsOutstanding,
                [net] { return static_cast<double>(net->packetsOutstanding()); });
      if (spec_.obs.sampling()) {
        sampler_ = std::make_unique<obs::Sampler>(sim_, *observers_[0],
                                                  spec_.obs.sampleInterval,
                                                  spec_.obs.stallWindow);
      }
      if (spec_.obs.windowed()) {
        // Flight recorder: a second kEpsControl component in the control sim
        // (constructed after the sampler, so on shared ticks the sampler's
        // row precedes the window close — deterministically, like everything
        // scheduled here). Providers read lane-summed network state, which at
        // a kEpsControl boundary equals the serial engine's values.
        recorder_ = std::make_unique<obs::FlightRecorder>(sim_, spec_.obs.windowTicks);
        for (auto& o : observers_) recorder_->addObserver(o.get());
        recorder_->setFlowProvider([net] {
          obs::FlowSample s;
          s.flitsInjected = net->flitsInjected();
          s.flitsEjected = net->flitsEjected();
          s.packetsCreated = net->packetsCreated();
          s.packetsEjected = net->packetsEjected();
          s.packetsDropped = net->packetsDropped();
          s.backlogFlits = net->totalSourceBacklogFlits();
          std::uint64_t queued = 0;
          for (RouterId r = 0; r < net->numRouters(); ++r) {
            queued += net->router(r).bufferedFlits();
          }
          s.queuedFlits = queued;
          s.packetsOutstanding = net->packetsOutstanding();
          return s;
        });
        recorder_->setLinkWalker(
            [net](const std::function<void(const obs::LinkStatsRow&)>& cb) {
              net->forEachLinkStats(cb);
            },
            network_->numRouters(), network_->maxPorts());
        recorder_->setVcOccupancyProvider([net] { return net->vcOccupancySums(); });
        if (faultCtrl_ != nullptr) {
          recorder_->setFaultWindow(faultCtrl_->killAt(), faultCtrl_->reviveAt());
        }
        if (sampler_ != nullptr) {
          // A watchdog trip streams the whole timeline before the diagnostic
          // dump: the deadlock walk and the windows leading up to it land in
          // one artifact.
          sampler_->setStallDump(
              [rec = recorder_.get()](std::FILE* f) { rec->dumpTimeline(f); });
        }
      }
    }
  }

  if (pointJobs_ == 1) {
    serial_ = std::make_unique<sim::SerialBackend>(sim_);
    backend_ = serial_.get();
  } else {
    // Lookahead: the minimum cross-shard channel latency. A plan with no
    // cross-shard channels imposes no bound; fall back to the network-wide
    // minimum so windows stay finite.
    Tick lookahead = network_->crossShardLookahead();
    std::string detail = network_->lookaheadDetail();
    if (lookahead == kTickInvalid) {
      lookahead = network_->minChannelLatency() != kTickInvalid
                      ? network_->minChannelLatency()
                      : 1;
      detail = "no cross-shard channels";
    }
    engine_ = std::make_unique<sim::par::Engine>(layout.sims, &sim_, mail_.get(),
                                                 lookahead, detail);
    engine_->setBarrierHook([net = network_.get()] { net->drainDeferredFrees(); });
    backend_ = engine_.get();
    sim::par::Engine* eng = engine_.get();
    if (recorder_ != nullptr) {
      recorder_->setBusyProbe([eng] { return eng->busy(); });
      // Load-balance telemetry: cumulative per-shard events, mailbox posts
      // drained, and wall-clock barrier waits. The recorder is a control
      // event — all workers are parked when this runs.
      recorder_->setEngineProvider([eng] {
        obs::EngineSample es;
        es.shardEvents = eng->shardEventsProcessed();
        es.mailboxPosts = eng->mailboxPostsDrained();
        es.barrierWaitSeconds = eng->workerBarrierWaitSeconds();
        return es;
      });
    }
    if (sampler_ != nullptr) {
      sampler_->setBusyProbe([eng] { return eng->busy(); });
      std::vector<obs::NetObserver*> all;
      for (auto& o : observers_) all.push_back(o.get());
      sampler_->setCreditStallProvider([all = std::move(all)] {
        std::uint64_t total = 0;
        for (const auto* o : all) total += o->creditStallCount();
        return total;
      });
      // Watchdog dump extension: per-shard progress and mailbox depths, so a
      // cross-shard stall names the starved shard. The sampler is a control
      // event — it runs with all workers parked at the barrier, so the
      // engine and mailbox reads race with nothing.
      sampler_->setEngineDiagnostics([eng, mail = mail_.get()](std::FILE* f) {
        const std::vector<std::uint64_t> events = eng->shardEventsProcessed();
        std::fprintf(f, "par engine: %u shards, %llu windows run\n", eng->numShards(),
                     static_cast<unsigned long long>(eng->windowsRun()));
        for (std::uint32_t s = 0; s < eng->numShards(); ++s) {
          std::fprintf(f, "  shard %u: %llu events processed\n", s,
                       static_cast<unsigned long long>(events[s]));
        }
        for (std::uint32_t src = 0; src < mail->numShards(); ++src) {
          for (std::uint32_t dst = 0; dst < mail->numShards(); ++dst) {
            const std::size_t depth = mail->box(src, dst).size();
            if (depth != 0) {
              std::fprintf(f, "  mailbox %u->%u: %zu undelivered posts\n", src, dst, depth);
            }
          }
        }
      });
    }
  }
}

const topo::HyperX& Experiment::hyperx() const {
  const auto* hx = dynamic_cast<const topo::HyperX*>(topo_.get());
  HXWAR_CHECK_MSG(hx != nullptr, "Experiment::hyperx(): topology is not a HyperX");
  return *hx;
}

metrics::SteadyStateResult Experiment::run() {
  std::vector<traffic::SyntheticInjector*> injectors;
  injectors.reserve(injectors_.size());
  for (auto& inj : injectors_) injectors.push_back(inj.get());
  metrics::SteadyStateResult result =
      metrics::runSteadyState(*backend_, *network_, injectors, spec_.steady);
  // Partition census is a property of the (spec, fault set) pair, not of the
  // measurement — stamped here so every caller of run() sees it.
  result.unreachablePairs = connectivity_.unreachablePairs;
  result.unreachableRouters = connectivity_.unreachableRouters;
  return result;
}

// Expand (base seed, point index) into independent injector/network seeds.
// The index — never a thread id or completion order — keys the streams, so
// serial and parallel execution of the same grid are bit-identical.
ExperimentSpec sweepPointConfig(const ExperimentSpec& base, double load,
                                std::size_t index) {
  ExperimentSpec spec = base;
  spec.injection.rate = load;
  SplitMix64 mix(base.injection.seed ^
                 (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1)));
  spec.injection.seed = mix.next();
  spec.net.rngSeed = mix.next();
  // spec.fault.seed (like patternSeed) is deliberately NOT re-derived: every
  // point of a sweep measures the same degraded network.
  return spec;
}

namespace {

// One attempt at a sweep point; hxwar::Error propagates to runSweepPoint's
// isolation wrapper below. CHECK failures still abort the process — they are
// simulator contract violations, not expected degraded-run outcomes.
SweepPoint runSweepPointOnce(const ExperimentSpec& base, double load, std::size_t index) {
  SweepPoint p;
  p.load = load;
  p.index = index;
  const auto t0 = std::chrono::steady_clock::now();
  Experiment exp(sweepPointConfig(base, load, index));
  p.result = exp.run();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
  p.wallSeconds = elapsed.count();
  p.eventsProcessed = exp.backend().eventsProcessed();
  p.eventsPerSec = p.wallSeconds > 0.0
                       ? static_cast<double>(p.eventsProcessed) / p.wallSeconds
                       : 0.0;
  p.pointJobs = exp.pointJobs();
  if constexpr (obs::kCompiledIn) {
    if (exp.observer() != nullptr) {
      // Merge the per-lane traces and canonicalize: serial and sharded runs
      // record the same event multiset in different interleavings, and the
      // canonical (ts, id, kind) order makes the serialized trace identical.
      // Sampler rows live on the lane-0 observer only.
      for (const auto& o : exp.observers()) {
        for (const obs::TraceEvent& e : o->trace().events()) p.trace.add(e);
      }
      obs::canonicalize(p.trace);
      p.samples = exp.observer()->samples();
    }
    if (exp.recorder() != nullptr) {
      p.windows = exp.recorder()->windows();
      p.shardWindows = exp.recorder()->shardWindows();
    }
  }
  return p;
}

}  // namespace

SweepPoint runSweepPoint(const ExperimentSpec& base, double load, std::size_t index) {
  // Crash isolation: one same-seed retry (guards against environment flakes
  // — the simulation itself is deterministic), then a structured failed row.
  // Sweeps keep their other points; front ends surface status/message.
  for (int attempt = 0;; ++attempt) {
    try {
      return runSweepPointOnce(base, load, index);
    } catch (const Error& e) {
      if (attempt == 0) continue;
      SweepPoint p;
      p.load = load;
      p.index = index;
      p.status = "failed";
      p.message = e.what();
      return p;
    }
  }
}

std::vector<SweepPoint> loadLatencySweep(const ExperimentSpec& base,
                                         const std::vector<double>& loads,
                                         bool stopAtSaturation) {
  std::vector<SweepPoint> points;
  std::uint32_t saturatedStreak = 0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    points.push_back(runSweepPoint(base, loads[i], i));
    saturatedStreak = points.back().result.saturated ? saturatedStreak + 1 : 0;
    if (stopAtSaturation && saturatedStreak >= 2) break;
  }
  return points;
}

double saturationThroughput(const ExperimentSpec& base, double offered) {
  ExperimentSpec spec = base;
  spec.injection.rate = offered;
  // Saturated runs skip the drain phase; the accepted rate over the
  // measurement window is the steady-state throughput.
  Experiment exp(spec);
  return exp.run().accepted;
}

std::vector<double> loadGrid(double step, double max) {
  // Multiply instead of accumulating (l += step drifts: after 20 additions of
  // 0.05 the sum overshoots 1.0 by ~2e-16 and the last point is dropped).
  std::vector<double> loads;
  for (std::size_t i = 1; step * static_cast<double>(i) <= max + 1e-9; ++i) {
    loads.push_back(step * static_cast<double>(i));
  }
  return loads;
}

}  // namespace hxwar::harness
