// Network: instantiates routers, terminals, and channels from a Topology and
// a RoutingAlgorithm, owns all packets in flight, and aggregates counters for
// the measurement layer.
//
// Storage is dense and ID-indexed: routers, terminals, and the two channel
// kinds live in contiguous DenseArrays addressed by RouterId/NodeId/
// ChannelId (one allocation per kind, no per-object unique_ptr), and packets
// live in per-lane PacketPool slabs addressed by PacketRef. Integer IDs — not
// heap pointers — are the identities that cross layer boundaries, which is
// what lets router state shard across workers (IDs partition; pointers
// don't).
//
// Sharded construction (DESIGN.md §12): a ShardLayout hands the network one
// simulator per shard plus a ShardPlan mapping routers to shards. Terminals
// and terminal channels follow their router's shard; a router-to-router
// channel becomes a Component of its *receiver's* shard and, when the sender
// lives elsewhere, is bound to the sender shard's mailbox (bindRemote). All
// per-shard mutable network state lives in LaneStats slots; totals are sums,
// read only at barriers or after a run. The legacy single-simulator
// constructor is the one-shard special case and runs the identical code.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/dense_array.h"
#include "common/types.h"
#include "net/channel.h"
#include "obs/window.h"
#include "net/lane.h"
#include "net/listener.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/router.h"
#include "net/terminal.h"
#include "routing/routing.h"
#include "sim/par/mailbox.h"
#include "sim/par/shard_plan.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace hxwar::obs {
class NetObserver;
}

namespace hxwar::net {

struct NetworkConfig {
  RouterConfig router;
  Tick channelLatencyRouter = 10;   // cycles, router-to-router
  Tick channelLatencyTerminal = 1;  // cycles, terminal-to-router
  std::uint32_t terminalEjectDepth = 32;  // flits per VC buffered at the terminal
  std::uint64_t rngSeed = 1;
};

// How to distribute the network across shard simulators. One entry in `sims`
// and `routing` per shard; `plan`/`mail` may be null for a single shard.
// Routing instances must be per-shard because adaptive algorithms keep
// mutable scratch (e.g. the masked route cache) that two workers must not
// share; all instances must describe the same algorithm.
struct ShardLayout {
  std::vector<sim::Simulator*> sims;
  const sim::par::ShardPlan* plan = nullptr;
  sim::par::Mailboxes* mail = nullptr;
  std::vector<routing::RoutingAlgorithm*> routing;
};

class Network {
 public:
  // Memory accounting for the paper-scale budget (see DESIGN.md §11): every
  // byte the network core owns, attributed by layer, plus the two normalized
  // budget rows tracked in BENCH_core.json. `flitSlots` is the configured
  // buffering capacity (input buffers + output queues across all routers), a
  // load-independent denominator.
  struct MemoryFootprint {
    std::size_t totalBytes = 0;
    std::size_t routersBytes = 0;
    std::size_t terminalsBytes = 0;
    std::size_t channelsBytes = 0;
    std::size_t packetPoolBytes = 0;
    std::size_t miscBytes = 0;
    std::uint64_t flitSlots = 0;
    double bytesPerTerminal = 0.0;
    double bytesPerFlitSlot = 0.0;
  };

  Network(sim::Simulator& sim, const topo::Topology& topology,
          routing::RoutingAlgorithm& routing, const NetworkConfig& config);
  Network(const ShardLayout& layout, const topo::Topology& topology,
          const NetworkConfig& config);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Router& router(RouterId r) { return routers_[r]; }
  const Router& router(RouterId r) const { return routers_[r]; }
  Terminal& terminal(NodeId n) { return terminals_[n]; }
  std::uint32_t maxPorts() const { return maxPorts_; }
  std::uint32_t numRouters() const { return static_cast<std::uint32_t>(routers_.size()); }
  std::uint32_t numNodes() const { return static_cast<std::uint32_t>(terminals_.size()); }
  std::uint32_t numChannels() const {
    return static_cast<std::uint32_t>(flitChannels_.size() + creditChannels_.size());
  }
  const topo::Topology& topology() const { return topology_; }
  const NetworkConfig& config() const { return config_; }
  sim::Simulator& simulator() { return *sims_[0]; }

  // --- sharding ---
  std::uint32_t numLanes() const { return static_cast<std::uint32_t>(lanes_.size()); }
  std::uint32_t laneOfRouter(RouterId r) const { return routerShard_[r]; }
  std::uint32_t laneOfNode(NodeId n) const { return nodeLane_[n]; }
  // Minimum latency over every channel in the network (satellite: the
  // parallel engine CHECKs its window is >= 1 tick against this floor).
  Tick minChannelLatency() const { return minChannelLatency_; }
  // Minimum latency over cross-shard channels only — the engine's lookahead.
  // kTickInvalid when no channel crosses a shard boundary (single shard, or a
  // plan whose cuts hit no links): windows are then unbounded.
  Tick crossShardLookahead() const { return crossLookahead_; }
  // Names the channel that set the lookahead, for actionable CHECK messages.
  const std::string& lookaheadDetail() const { return lookaheadDetail_; }
  // Barrier hook: recycles packet slots freed by one lane into their owning
  // lane's pool. Must run with all workers parked (the engine's barrier).
  void drainDeferredFrees();

  // Lifecycle listener (ejection + drop hooks); one branch and one virtual
  // call per completed packet when set, one branch when unset. The no-lane
  // overloads set every lane (serial-era API; fine for one shard).
  void setListener(NetListener* listener) {
    for (LaneStats& l : lanes_) l.listener = listener;
  }
  void setListener(std::uint32_t lane, NetListener* listener) {
    lanes_[lane].listener = listener;
  }
  // Per-hop listener, a separate slot so measurement code listening for
  // ejections does not drag a virtual call into every head-flit grant.
  void setHopListener(NetListener* listener) {
    for (LaneStats& l : lanes_) l.hopListener = listener;
    refreshHopListenerFlag();
  }
  void setHopListener(std::uint32_t lane, NetListener* listener) {
    lanes_[lane].hopListener = listener;
    refreshHopListenerFlag();
  }
  // Installs the fault mask on every router (nullptr disables fault logic).
  // Routers filter candidates and silence dead output ports through it; the
  // mask contents may change mid-run (FaultController transient windows).
  void setDeadPortMask(const fault::DeadPortMask* mask);
  // Attaches the observability sink to this network and all its routers
  // (nullptr detaches). One observer per lane, each written only by its
  // shard's worker; see obs/net_observer.h. Hot paths pay one branch on the
  // cached pointer when no observer is attached.
  void setObserver(obs::NetObserver* observer);
  void setObservers(const std::vector<obs::NetObserver*>& observers);
  obs::NetObserver* observer() const { return lanes_[0].observer; }
  obs::NetObserver* observer(std::uint32_t lane) const { return lanes_[lane].observer; }
  bool hasHopListener() const { return anyHopListener_; }
  void notifyHop(std::uint32_t lane, const Packet& pkt, RouterId router, PortId inPort,
                 PortId outPort, Tick now) {
    if (NetListener* l = lanes_[lane].hopListener) l->onHop(pkt, router, inPort, outPort, now);
  }

  // Convenience: build a packet and hand it to the source terminal. Safe to
  // call from the source's shard worker (everything it touches is lane-local).
  Packet& injectPacket(NodeId src, NodeId dst, std::uint32_t sizeFlits);

  // --- packet slab ---
  // Packets live in per-lane pool slabs and are addressed by 4-byte
  // PacketRef slot ids whose top bits name the owning lane; flits and source
  // queues carry refs, and resolve them here.
  PacketPool& pool(std::uint32_t lane = 0) { return *poolTable_[lane]; }
  Packet& packet(PacketRef ref) {
    return poolTable_[ref >> PacketPool::kLaneShift]->get(ref);
  }
  const Packet& packet(PacketRef ref) const {
    return poolTable_[ref >> PacketPool::kLaneShift]->get(ref);
  }
  Packet* allocPacket() { return &poolTable_[0]->get(poolTable_[0]->alloc()); }
  void recyclePacket(Packet* pkt) {
    poolTable_[pkt->slot >> PacketPool::kLaneShift]->recycle(pkt->slot);
  }
  std::size_t packetPoolSize() const {
    std::size_t n = 0;
    for (const PacketPool* p : poolTable_) n += p->size();
    return n;
  }
  std::uint64_t packetPoolReuses() const {
    std::uint64_t n = 0;
    for (const PacketPool* p : poolTable_) n += p->reuses();
    return n;
  }

  // --- hooks used by routers/terminals ---
  std::uint32_t downstreamDepth(RouterId r, PortId p) const;
  void completePacket(PacketRef ref, std::uint32_t lane, Tick now);
  // Fault dead end: count the loss, notify the drop listener, recycle.
  void dropPacket(PacketRef ref, std::uint32_t lane, Tick now);

  // First deferred-fatal message recorded by any lane, scanned in lane order
  // so the reported message is deterministic for any shard count (empty =
  // healthy). Read only between windows or after a run — the writers are the
  // shard workers. The steady-state loop raises hxwar::Error on it.
  std::string fatalError() const {
    for (const LaneStats& l : lanes_) {
      if (!l.fatalError.empty()) return l.fatalError;
    }
    return std::string();
  }

  // --- counters (lane sums; read at barriers or after a run) ---
  std::uint64_t flitMovements() const { return sum(&LaneStats::flitMovements); }
  std::uint64_t flitsInjected() const { return sum(&LaneStats::flitsInjected); }
  std::uint64_t flitsEjected() const { return sum(&LaneStats::flitsEjected); }
  std::uint64_t packetsCreated() const { return sum(&LaneStats::packetsCreated); }
  std::uint64_t packetsEjected() const { return sum(&LaneStats::packetsEjected); }
  std::uint64_t packetsDropped() const { return sum(&LaneStats::packetsDropped); }
  std::uint64_t flitsDropped() const { return sum(&LaneStats::flitsDropped); }
  // Packets enqueued or in flight but neither delivered nor dropped.
  std::uint64_t packetsOutstanding() const {
    return packetsCreated() - packetsEjected() - packetsDropped();
  }
  // Sum of all source-queue backlogs in flits (saturation signal). O(lanes):
  // maintained by terminal enqueue/injection notifications.
  std::uint64_t totalSourceBacklogFlits() const {
    std::int64_t n = 0;
    for (const LaneStats& l : lanes_) n += l.backlogFlits;
    return static_cast<std::uint64_t>(n);
  }

  // Walks every owned structure and reports the memory budget rows.
  MemoryFootprint memoryFootprint() const;

  // --- flight-recorder walks (cold path; read at kEpsControl boundaries or
  // after a run, when router SoA state is frozen) ---
  // Invokes `fn` once per inter-router link in (router, port) order with the
  // cumulative flits-sent / credit-stall counters and the instantaneous
  // output occupancy of the sending port. Deterministic order and values for
  // any shard count.
  void forEachLinkStats(const std::function<void(const obs::LinkStatsRow&)>& fn) const;
  // Flits buffered per VC index across every router (input queues + output
  // occupancy) — the per-VC heatmap row. Size = configured numVcs.
  std::vector<std::uint64_t> vcOccupancySums() const;

 private:
  void build(const ShardLayout& layout);
  // Recycles immediately when the freeing lane owns the slab; defers
  // cross-lane frees to the barrier (drainDeferredFrees).
  void releasePacket(PacketRef ref, std::uint32_t freeingLane);
  void refreshHopListenerFlag() {
    anyHopListener_ = false;
    for (const LaneStats& l : lanes_) anyHopListener_ |= (l.hopListener != nullptr);
  }
  std::uint64_t sum(std::uint64_t LaneStats::* member) const {
    std::uint64_t n = 0;
    for (const LaneStats& l : lanes_) n += l.*member;
    return n;
  }

  const topo::Topology& topology_;
  NetworkConfig config_;
  std::vector<sim::Simulator*> sims_;          // one per shard
  std::vector<std::uint32_t> routerShard_;     // router -> lane
  std::vector<std::uint32_t> nodeLane_;        // node -> lane (its router's)
  sim::par::Mailboxes* mail_ = nullptr;

  // Lanes and pools are sized once before any component is constructed:
  // routers and terminals cache LaneStats* and the pool table address.
  std::vector<LaneStats> lanes_;
  std::vector<std::unique_ptr<PacketPool>> pools_;
  std::vector<PacketPool*> poolTable_;  // flat, indexed by ref >> kLaneShift

  common::DenseArray<Router> routers_;
  common::DenseArray<Terminal> terminals_;
  common::DenseArray<FlitChannel> flitChannels_;
  common::DenseArray<CreditChannel> creditChannels_;
  std::vector<std::uint8_t> portIsTerminal_;  // [router * maxPorts + port]
  std::uint32_t maxPorts_ = 0;
  bool anyHopListener_ = false;

  // Per-source packet sequence numbers: pkt.id = (src << 32) | seq. Written
  // only from the source's shard, and partition-invariant — the ids (which
  // feed age-arbiter tie-breaks and trace identity) are the same for any
  // shard count. Serial uses the identical scheme.
  std::vector<std::uint32_t> srcSeq_;

  Tick minChannelLatency_ = kTickInvalid;
  Tick crossLookahead_ = kTickInvalid;
  std::string lookaheadDetail_;
};

}  // namespace hxwar::net
