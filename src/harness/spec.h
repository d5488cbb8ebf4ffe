// ExperimentSpec: the serializable, topology-agnostic description of one
// experiment — which topology family, routing algorithm, and traffic pattern
// (all registry names, see harness/registry.h), the free-form construction
// parameters those factories read, and the structured network / injection /
// steady-state configuration.
//
// A spec can be built two ways, both equivalent:
//   * programmatically (start from ExperimentSpec() or a scaleSpec() preset,
//     set fields, put construction keys into `params`),
//   * from command-line flags or a `key = value` config file (fromFlags).
//
// serialize() emits the flag-backed surface as config-file text, so
//   Flags f; f.loadFile(path); ExperimentSpec::fromFlags(f)
// round-trips a saved spec. Fields without a flag (injection node masks, the
// steady-state tolerance knobs) keep their defaults across a round trip.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "fault/fault_model.h"
#include "metrics/steady_state.h"
#include "net/network.h"
#include "obs/obs.h"
#include "traffic/injector.h"

namespace hxwar::harness {

// Shortest decimal text that parses back to exactly the same double — used
// wherever a double crosses the string boundary (serialize) so a
// round-tripped spec simulates bit-identically.
std::string formatDouble(double v);

// Strict comma-separated u32 list: every entry must be a plain non-negative
// integer ("4,4,8"); fractional ("4.5"), negative, or malformed entries abort
// with a message naming the flag and the offending token. A present-but-empty
// value falls back, matching the lenient legacy behavior for "--widths=".
std::vector<std::uint32_t> flagU32List(const Flags& flags, const std::string& key,
                                       std::vector<std::uint32_t> fallback);

// Structured sub-configs from flags; fields whose flag is absent keep the
// value in `defaults`. Flag names are documented in harness/builder.h.
net::NetworkConfig networkConfigFromFlags(const Flags& flags, net::NetworkConfig defaults);
metrics::SteadyStateConfig steadyConfigFromFlags(const Flags& flags,
                                                 metrics::SteadyStateConfig defaults);
traffic::SyntheticInjector::Params injectionFromFlags(const Flags& flags,
                                                      traffic::SyntheticInjector::Params defaults);
fault::FaultSpec faultSpecFromFlags(const Flags& flags, fault::FaultSpec defaults);
obs::ObsOptions obsOptionsFromFlags(const Flags& flags, obs::ObsOptions defaults);

struct ExperimentSpec {
  std::string topology = "hyperx";  // registered family name
  std::string routing;              // registered algorithm name; empty = family default
  std::string pattern = "ur";       // registered pattern name

  // Construction parameters consumed by the topology/routing/pattern
  // factories (widths, terminals, df-*, ft-*, sf-q, ugal-bias, ...). Unknown
  // keys are ignored by the factories, so specs stay forward-compatible.
  std::map<std::string, std::string> params;

  net::NetworkConfig net;  // defaulted to the builder defaults (see spec.cc)
  traffic::SyntheticInjector::Params injection;
  metrics::SteadyStateConfig steady;

  // Seed for seeded patterns (rp). Deliberately NOT re-derived per sweep
  // point: a permutation pattern stays fixed across a load sweep.
  std::uint64_t patternSeed = 99;

  // Fault injection (see fault/fault_model.h). Like patternSeed, fault.seed
  // is NOT re-derived per sweep point: a load sweep measures one fixed
  // degraded network, not a different fault set per load.
  fault::FaultSpec fault;

  // Observability options (--trace-out / --metrics-json / --sample-interval,
  // see obs/obs.h). Operational output knobs, never part of an experiment's
  // identity: serialize() omits them and the per-point seeds ignore them, so
  // a traced run simulates bit-identically to an untraced one.
  obs::ObsOptions obs;

  // --point-jobs=N: worker threads *inside* one sweep point — the network is
  // sharded across N simulators driven by the conservative parallel engine
  // (sim/par, DESIGN.md §12). Composes with --jobs (points × shards).
  // Operational like `obs`: never part of an experiment's identity — every
  // output surface except wall-clock telemetry is bit-identical for any
  // value — so serialize() omits it. Clamped to the router count at
  // construction.
  std::uint32_t pointJobs = 1;

  ExperimentSpec();  // installs the builder-default network config

  // Default spec overridden by every recognized flag; defaults match the
  // historical hxsim command line (see harness/builder.h for the key list).
  static ExperimentSpec fromFlags(const Flags& flags);

  // Overwrites only the fields whose flags are present — presets stay
  // authoritative for everything the command line does not mention.
  void applyFlags(const Flags& flags);

  // `params` as a Flags object, the currency of the registry factories.
  Flags paramFlags() const;

  // Config-file text (`key = value` lines); see the round-trip note above.
  std::string serialize() const;
};

// HyperX scale presets by name; an unknown name aborts.
//   tiny:  3x3, K=2 (18 nodes) — unit/property tests
//   small: 4x4x4, K=4 (256 nodes), short channels — default for benches/tests
//   paper: 8x8x8, K=8 (4,096 nodes), 50-cycle channels — the paper's system
// Each starts from the raw net::NetworkConfig / metrics::SteadyStateConfig
// defaults, not from ExperimentSpec()'s builder defaults, with DimWAR on UR.
ExperimentSpec scaleSpec(const std::string& name);

}  // namespace hxwar::harness
