// Steady-state measurement controller, following the methodology of §6.1:
//
//   "Before any measurements are taken, the network is warmed up with traffic
//    until packet latency stabilizes. Packet injection continues until all
//    measurements have completed. If the network never reaches a state where
//    latency stabilizes, the network is declared saturated and measurements
//    are not taken."
//
// Warmup: the run is divided into fixed windows; the mean latency of packets
// ejected in each window is compared to the previous window. Stable when the
// relative change stays under `stabilityTol` for `stableWindows` consecutive
// windows AND the aggregate source backlog is not growing (a saturated
// network can show stable *ejected* latencies while queues diverge).
//
// Measurement: packets created during the measurement interval are tracked to
// ejection (latency sample = ejection - creation, so source queueing counts);
// accepted throughput is ejected flits per node per cycle over the interval.
// A deadlock watchdog aborts if no flit moves for a full window while packets
// are outstanding.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "metrics/stats.h"
#include "net/network.h"
#include "obs/histogram.h"
#include "obs/obs.h"
#include "sim/backend.h"
#include "sim/simulator.h"
#include "traffic/injector.h"

namespace hxwar::metrics {

struct SteadyStateConfig {
  Tick warmupWindow = 1000;           // cycles per warmup window
  std::uint32_t maxWarmupWindows = 40;
  std::uint32_t stableWindows = 2;
  double stabilityTol = 0.05;
  double backlogGrowthTol = 1.10;     // per-window backlog growth => unstable
  double acceptedTol = 0.93;          // window accepted must reach this share
                                      // of the offered rate to count as stable
  Tick measureWindow = 5000;          // cycles of marked-packet creation
  Tick drainWindow = 20000;           // extra cycles to let marked packets finish
  std::uint64_t minMeasurePackets = 100;
};

struct SteadyStateResult {
  bool saturated = false;
  double offered = 0.0;            // flits/node/cycle
  double accepted = 0.0;           // flits/node/cycle during the measurement
  double latencyMean = 0.0;        // cycles, creation -> ejection
  double latencyP50 = 0.0;
  double latencyP90 = 0.0;
  double latencyP99 = 0.0;
  double latencyP999 = 0.0;
  double latencyMin = 0.0;
  double latencyMax = 0.0;
  double avgHops = 0.0;            // router-to-router hops per packet
  double avgDeroutes = 0.0;
  std::uint64_t packetsMeasured = 0;
  Tick warmupCycles = 0;
  // --- resilience metrics (nonzero only on faulted networks) ---
  // Marked packets dropped at fault dead ends (any --fault-policy but abort).
  std::uint64_t packetsDropped = 0;
  // packetsDropped / marked packets created: the delivered-vs-dropped split.
  double droppedShare = 0.0;
  // Mean hops / minHops over delivered marked packets, where minHops is taken
  // from the network's effective topology — on a degraded network, the BFS
  // distance over the surviving links. 1.0 = every packet took a shortest
  // reachable path; the excess is the price of routing around faults.
  double avgStretch = 0.0;
  // Partition census when a partition-tolerant fault policy accepted a
  // disconnecting fault set (filled by the harness from the connectivity
  // report; zero on connected networks): ordered router pairs with no
  // surviving path, and routers cut off from router 0's component.
  std::uint64_t unreachablePairs = 0;
  std::uint32_t unreachableRouters = 0;
  // --- observability extensions ---
  // Log2-bucketed latency distribution over the marked packets; the tail
  // percentiles above are nearest-rank over the raw samples, the histogram
  // backs the metrics-json bucket dump and cross-point merging.
  obs::LogHistogram latencyHistogram;
  // Latency broken down by router-to-router hop count: hopLatency[h] covers
  // the marked packets that took exactly h hops (empty entries have
  // packets == 0). Separates "far packets are slow" from "queueing is slow".
  struct HopLatency {
    std::uint64_t packets = 0;
    double meanLatency = 0.0;
  };
  std::vector<HopLatency> hopLatency;
  // Routing-decision telemetry copied from the network's observer at the end
  // of the run; all-zero when no observer is attached (obs disabled).
  obs::RoutingCounters routing;
};

// Runs warmup + measurement for an already-constructed network.
//
// Backend-driven form: `injectors` holds one injector per network lane (the
// sharded harness passes one per shard, each covering that shard's nodes; the
// serial harness passes one covering every node). All injectors are started
// by this call and left stopped afterwards; every one must use the same
// offered rate.
//
// Every statistic is accumulated per lane and merged in lane order with
// integer sums (means = sum/count, percentiles = nearest-rank over the merged
// sorted samples), so the result is bit-identical for any shard count —
// including every warmup stability decision, which is recomputed from the
// same merged integers on both engines.
SteadyStateResult runSteadyState(sim::SimBackend& backend, net::Network& network,
                                 const std::vector<traffic::SyntheticInjector*>& injectors,
                                 const SteadyStateConfig& config);

// Legacy serial form: wraps the Simulator in a SerialBackend and drives the
// single injector over lane 0.
SteadyStateResult runSteadyState(sim::Simulator& sim, net::Network& network,
                                 traffic::SyntheticInjector& injector,
                                 const SteadyStateConfig& config);

}  // namespace hxwar::metrics
