// Fault model: deterministic seeded fault sets and connectivity validation.
//
// A FaultSpec describes which inter-router links fail — drawn at random per
// undirected link from (--fault-rate, --fault-seed), listed explicitly
// (--fault-links=r:p,r:p,...), or whole routers (--fault-routers=r,r,...) —
// and optionally *when*: a [--fault-at, --fault-until) cycle window turns the
// set into a transient fault that kills and later revives the channels
// mid-run (FaultController schedules the mask writes).
//
// buildFaultSet() expands a spec into the concrete directed (router, port)
// list. The random draw is keyed by (seed, undirected link id), never by
// iteration order, so the same spec yields the same fault set on every
// platform and at any sweep parallelism.
//
// checkConnectivity() BFS-validates the degraded graph and reports the first
// unreachable router pair; DegradedTopology and the harness reject
// partitioned networks with that message. hyperxOneDerouteRoutable() checks
// the stronger per-row condition under which the fault-aware adaptive
// algorithms (DAL/DimWAR/OmniWAR) guarantee delivery: in every dimension,
// every ordered coordinate pair is connected directly or via one intermediate
// coordinate (one deroute).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "fault/dead_port_mask.h"
#include "fault/fault_policy.h"
#include "topo/hyperx.h"
#include "topo/topology.h"

namespace hxwar::fault {

struct FaultSpec {
  double rate = 0.0;           // per-link failure probability in [0, 1)
  std::uint64_t seed = 12345;  // random-draw seed (independent of sweep seeds)
  std::string links;           // explicit "r:p,r:p,..." failed links
  std::string routers;         // explicit "r,r,..." failed routers
  Tick at = kTickInvalid;      // transient: cycle the faults strike
  Tick until = kTickInvalid;   // transient: cycle the channels revive
  // Graceful-degradation ladder selector (--fault-policy); see
  // fault/fault_policy.h.
  FaultPolicy policy = FaultPolicy::kAbort;

  bool active() const { return rate > 0.0 || !links.empty() || !routers.empty(); }
  bool transient() const { return at != kTickInvalid; }
  FaultPolicy effectivePolicy() const { return policy; }
  bool toleratesPartition() const {
    return faultPolicyToleratesPartition(effectivePolicy());
  }
};

struct FaultSet {
  // Directed (router, port) entries, both directions of every failed link,
  // sorted and deduplicated. This is what DeadPortMask::apply consumes.
  std::vector<std::pair<RouterId, PortId>> ports;
  std::vector<RouterId> failedRouters;  // from FaultSpec::routers
  std::size_t failedLinks = 0;          // undirected link count
};

// Expands a spec against a topology. Aborts (CHECK) on malformed link lists,
// out-of-range ids, or entries naming terminal/unused ports.
FaultSet buildFaultSet(const topo::Topology& topo, const FaultSpec& spec);

// BFS over portTarget() from `src`, optionally masking dead ports
// (mask == nullptr walks the raw topology). out[r] = hops, or kUnreachable.
inline constexpr std::uint32_t kUnreachable = 0xffffffffu;
void bfsDistances(const topo::Topology& topo, RouterId src, const DeadPortMask* mask,
                  std::vector<std::uint32_t>& out);

struct ConnectivityReport {
  bool connected = true;
  RouterId from = kRouterInvalid;  // first unreachable pair, when partitioned
  RouterId to = kRouterInvalid;
  std::string message;  // actionable error text, empty when connected
  // Routers cut off from router 0's component, and the number of ordered
  // router pairs (a, b) with no surviving path. Zero when connected. The
  // partition-tolerant policies report these as metrics instead of rejecting
  // the spec (DESIGN.md §13).
  std::uint32_t unreachableRouters = 0;
  std::uint64_t unreachablePairs = 0;
};

// BFS from router 0 over the masked topology; reports the first unreachable
// pair when the fault set partitions the network, plus the component census
// behind the unreachable-pair metrics.
ConnectivityReport checkConnectivity(const topo::Topology& topo, const DeadPortMask& mask);

// HyperX one-deroute routability: for every dimension d and every ordered
// coordinate pair (a, b) within every row of d, either the direct link a->b
// survives or some intermediate coordinate x has both a->x and x->b alive.
// Under this condition the fault-aware DAL/DimWAR/OmniWAR candidate rules
// always emit at least one live candidate (see DESIGN.md §8). Optionally
// reports the first violating row/pair.
bool hyperxOneDerouteRoutable(const topo::HyperX& topo, const DeadPortMask& mask,
                              std::string* why = nullptr);

}  // namespace hxwar::fault
