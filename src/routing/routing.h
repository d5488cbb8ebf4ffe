// Routing algorithm interface.
//
// The router invokes route() whenever a head flit is at the front of an input
// VC and has not yet been assigned an output. The algorithm emits candidates
// as (output port, VC class, remaining hops, deroute?) tuples; the router
// expands classes to concrete VCs, filters by availability, weighs candidates
// by congestion x hops, and picks the minimum (random tie-break).
//
// Resource classes: every algorithm declares numClasses(); the router maps
// class c onto the VC set { v : v % numClasses == c } so that algorithms
// needing fewer classes than the configured VCs spread over the spare VCs for
// head-of-line-blocking relief, exactly as the paper's methodology prescribes
// (8 VCs for every algorithm). Deadlock safety only depends on the class
// order, which the mapping preserves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "fault/dead_port_mask.h"
#include "net/packet.h"

namespace hxwar::net {
class Router;
}

namespace hxwar::obs {
class NetObserver;
}

namespace hxwar::routing {

struct Candidate {
  PortId port = kPortInvalid;
  std::uint32_t vcClass = 0;
  std::uint32_t hopsRemaining = 0;  // including this hop, to the dest router
  bool deroute = false;
  // Atomic queue allocation (escape-path rule, §4.2): the output VC may only
  // be granted when the downstream buffer is completely empty AND all credits
  // have returned — one packet per VC per credit round trip.
  bool atomic = false;
  // If this deroute is granted, the router sets bit `derouteDim` in the
  // packet's deroutedDims mask (DAL's once-per-dimension bookkeeping).
  std::uint8_t derouteDim = 0xff;
  // This deroute exists only because a fault killed the minimal option (DAL's
  // re-deroute retry); telemetry counts these separately from congestion
  // deroutes.
  bool faultEscape = false;
};

// Context handed to route(): where the head flit sits.
struct RouteContext {
  net::Router& router;  // current router (congestion queries, rng)
  RouterId routerId;    // dense id of `router` — the identity algorithms key on
  PortId inPort;
  VcId inVc;        // meaningless when atSource
  bool atSource;    // head is at its source router (arrived from a terminal)
  std::uint32_t inClass;  // class of inVc (0 when atSource)
  // Dead-port mask when the network carries faults, nullptr otherwise.
  // Fault-aware algorithms (DAL/DimWAR/OmniWAR) consult it — including
  // one-step lookahead at remote routers — to skip dead candidates; the
  // router additionally filters every returned candidate against it, so
  // non-fault-aware algorithms fail loudly (or drop, under
  // --fault-policy=drop) at the dead end instead of stalling forever.
  const fault::DeadPortMask* deadPorts = nullptr;
  // Observability sink when attached (nullptr otherwise). Source-adaptive
  // algorithms report path-level deroute commitments through it.
  obs::NetObserver* obs = nullptr;
};

// Static implementation properties (reproduces Table 1).
struct AlgorithmInfo {
  std::string name;
  bool dimensionOrdered = false;
  enum class Style { kOblivious, kSource, kIncremental } style = Style::kOblivious;
  std::string vcsRequired;        // e.g. "2", "N+M", "1+1e"
  std::string deadlockHandling;   // e.g. "R.R. & R.C."
  std::string archRequirements;   // e.g. "none", "seq. alloc."
  std::string packetContents;     // e.g. "none", "int. addr."
};

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  // Appends candidates for the packet's next hop. If the packet's
  // destination terminal attaches to this router, the algorithm must emit a
  // single candidate for the terminal port (hopsRemaining = 0) — helper
  // provided by implementations. Must always emit at least one candidate.
  virtual void route(const RouteContext& ctx, net::Packet& pkt,
                     std::vector<Candidate>& out) = 0;

  // Number of resource classes this algorithm uses for deadlock avoidance.
  virtual std::uint32_t numClasses() const = 0;

  virtual AlgorithmInfo info() const = 0;
};

// class <-> VC mapping shared by router and algorithms.
class VcMap {
 public:
  VcMap(std::uint32_t numVcs, std::uint32_t numClasses)
      : numVcs_(numVcs), numClasses_(numClasses) {}

  std::uint32_t numVcs() const { return numVcs_; }
  std::uint32_t numClasses() const { return numClasses_; }
  std::uint32_t classOf(VcId vc) const { return vc % numClasses_; }
  // VCs of a class are {c, c+numClasses, c+2*numClasses, ...}.
  std::uint32_t vcsInClass(std::uint32_t c) const {
    return (numVcs_ - c + numClasses_ - 1) / numClasses_;
  }
  VcId vcOf(std::uint32_t c, std::uint32_t idx) const { return c + idx * numClasses_; }

 private:
  std::uint32_t numVcs_;
  std::uint32_t numClasses_;
};

}  // namespace hxwar::routing
