// FaultPolicy — what a router does when every candidate for a packet is dead
// (the "fault dead end"), and what the harness does with fault sets that
// partition the network. Tiny standalone header: both net/router.h and
// fault/fault_model.h need the enum, and neither should depend on the other.
//
// The ladder, least to most forgiving (DESIGN.md §13):
//   abort  — the point fails loudly (hxwar::Error via the deferred-fatal
//            slot). Default: a non-fault-aware algorithm on a degraded
//            network is a configuration error, not data.
//   drop   — drop-and-count with credit return.
//   retry  — bounded in-place retry with exponential backoff: the packet
//            stays queued and the route is recomputed against the *live*
//            mask each attempt (a transient fault may have revived the
//            path); after the budget it becomes an attributed drop.
//   escape — the routing algorithm escalates onto its reserved escape VC
//            class (FaultEscapePolicy / ftar); a dead end then only happens
//            for genuinely unreachable destinations (partition), which are
//            attributed drops. Partitioned fault sets are accepted and
//            reported as unreachable-pair metrics instead of rejected.
#pragma once

#include <cstdint>
#include <string>

namespace hxwar::fault {

enum class FaultPolicy : std::uint8_t {
  kAbort = 0,
  kDrop = 1,
  kRetry = 2,
  kEscape = 3,
};

inline const char* faultPolicyName(FaultPolicy p) {
  switch (p) {
    case FaultPolicy::kAbort: return "abort";
    case FaultPolicy::kDrop: return "drop";
    case FaultPolicy::kRetry: return "retry";
    case FaultPolicy::kEscape: return "escape";
  }
  return "abort";
}

// Returns true and sets `out` on a recognized name; false otherwise (the
// caller owns the error message — spec parsing wants the flag name in it).
inline bool parseFaultPolicy(const std::string& name, FaultPolicy* out) {
  if (name == "abort") { *out = FaultPolicy::kAbort; return true; }
  if (name == "drop") { *out = FaultPolicy::kDrop; return true; }
  if (name == "retry") { *out = FaultPolicy::kRetry; return true; }
  if (name == "escape") { *out = FaultPolicy::kEscape; return true; }
  return false;
}

// Partition tolerance follows the policy: under abort the harness keeps the
// PR 3 behavior (reject a partitioned fault set up front with the first
// unreachable pair); every softer policy accepts the spec and surfaces the
// unreachable-pair count as a metric instead.
inline bool faultPolicyToleratesPartition(FaultPolicy p) {
  return p != FaultPolicy::kAbort;
}

}  // namespace hxwar::fault
