// PacketPool: chunked slab of Packets addressed by 4-byte slot refs.
//
// PR 1's pool recycled heap packets through a free list but still paid one
// unique_ptr allocation per slot forever. This is a true slab: packets live
// in 1,024-element chunks, a slot's PacketRef is (chunk << 10) | offset, and
// the ref — not the address — is the packet's identity while live. Chunk
// addresses never move, so `Packet&` resolved from a ref stays valid across
// later growth; flits and source queues carry the 4-byte ref.
//
// The chunk table is a fixed directory of lazily allocated pages of chunk
// pointers. Growth only writes entries no ref resolves through yet and never
// moves an existing one, so another lane's worker may resolve refs it was
// handed while the owning worker grows the pool (a growable vector of chunk
// pointers would reallocate under that reader). The directory costs 2 KiB per
// lane, each page 2 KiB per 256 chunks.
//
// Recycling reuses slots LIFO (the hottest slot first). A slot's ref is
// stable across recycle — the same slot hands out the same ref to its next
// tenant — and alloc() fully resets the record, so no state leaks between
// tenants. Double-recycle is a protocol violation, caught in !NDEBUG builds
// by a per-slot liveness bit.
//
// Sharded execution gives each lane its own pool, namespaced by `refBase`
// (lane << kLaneShift): refs from different lanes never collide, so a flit's
// 4-byte ref still identifies its packet globally — the network resolves the
// owning pool from the ref's top bits. Each pool caps at kLaneSpan slots so
// the lane bits stay disjoint.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "net/packet.h"

namespace hxwar::net {

class PacketPool {
 public:
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  // Lane namespace: ref = (lane << kLaneShift) | slot. 64 lanes max, 64M
  // live packets per lane (~5 GiB of Packet records — far past any budget).
  static constexpr std::uint32_t kLaneShift = 26;
  static constexpr std::uint32_t kLaneSpan = 1u << kLaneShift;

  PacketPool() = default;
  explicit PacketPool(PacketRef refBase) : refBase_(refBase) {
    HXWAR_CHECK_MSG((refBase & (kLaneSpan - 1)) == 0, "pool refBase must be lane-aligned");
  }
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Reads only table entries written before `ref` was handed out, never
  // slots_: another lane's worker may call this while the owner grows the pool.
  Packet& get(PacketRef ref) {
    const PacketRef local = ref - refBase_;
    HXWAR_DCHECK(local < kLaneSpan && pages_[local >> kPageShift] != nullptr);
    Packet* chunk =
        (*pages_[local >> kPageShift])[(local >> kChunkShift) & (kPageChunks - 1)].get();
    HXWAR_DCHECK(chunk != nullptr);
    return chunk[local & (kChunkSize - 1)];
  }
  const Packet& get(PacketRef ref) const {
    return const_cast<PacketPool*>(this)->get(ref);
  }

  // Hands out a fully reset packet with `slot` stamped. Grows by one chunk
  // when the free list is dry.
  PacketRef alloc() {
    if (free_.empty()) addChunk();
    const PacketRef ref = free_.back();
    free_.pop_back();
    // Fresh chunks enter the LIFO so refs pop in ascending order; a ref below
    // the high-water mark has had a previous tenant.
    if (ref - refBase_ < highWater_) {
      reuses_ += 1;
    } else {
      highWater_ = ref - refBase_ + 1;
    }
#ifndef NDEBUG
    live_[ref - refBase_] = 1;
#endif
    Packet& pkt = get(ref);
    pkt = Packet{};  // reset timestamps, routing scratch, reassembly state
    pkt.slot = ref;
    return ref;
  }

  void recycle(PacketRef ref) {
    HXWAR_DCHECK(ref - refBase_ < slots_);
#ifndef NDEBUG
    HXWAR_DCHECK_MSG(live_[ref - refBase_] != 0, "packet double-recycle (slot already free)");
    live_[ref - refBase_] = 0;
#endif
    free_.push_back(ref);
  }

  std::size_t size() const { return slots_; }
  std::size_t freeCount() const { return free_.size(); }
  std::uint64_t reuses() const { return reuses_; }

  // Bytes owned by the slab and its bookkeeping (memory-accounting hook).
  std::size_t memoryBytes() const {
    const std::size_t chunks = slots_ / kChunkSize;
    const std::size_t pages = (chunks + kPageChunks - 1) / kPageChunks;
    std::size_t n = sizeof(pages_) + pages * sizeof(Page) +
                    chunks * kChunkSize * sizeof(Packet) +
                    free_.capacity() * sizeof(PacketRef);
#ifndef NDEBUG
    n += live_.capacity();
#endif
    return n;
  }

 private:
  // Chunk-table geometry: a page holds kPageChunks chunk pointers, and the
  // directory holds enough pages to cover kLaneSpan slots.
  static constexpr std::uint32_t kPageChunks = 256;
  static constexpr std::uint32_t kPageShift = kChunkShift + 8;  // slots per page, log2
  static constexpr std::uint32_t kDirPages = kLaneSpan >> kPageShift;
  static_assert(kPageChunks << kChunkShift == 1u << kPageShift);
  using Page = std::array<std::unique_ptr<Packet[]>, kPageChunks>;

  void addChunk() {
    HXWAR_CHECK_MSG(slots_ + kChunkSize <= kLaneSpan, "packet slab exhausted (2^26 slots/lane)");
    std::unique_ptr<Page>& page = pages_[slots_ >> kPageShift];
    if (page == nullptr) page = std::make_unique<Page>();
    (*page)[(slots_ >> kChunkShift) & (kPageChunks - 1)] =
        std::make_unique<Packet[]>(kChunkSize);
    const PacketRef base = refBase_ + slots_;
    slots_ += kChunkSize;
#ifndef NDEBUG
    live_.resize(slots_, 0);
#endif
    free_.reserve(free_.size() + kChunkSize);
    for (std::uint32_t i = 0; i < kChunkSize; ++i) {
      free_.push_back(base + (kChunkSize - 1 - i));  // LIFO pops base first
    }
  }

  std::array<std::unique_ptr<Page>, kDirPages> pages_;
  std::vector<PacketRef> free_;   // LIFO: hottest slot first (global refs)
  PacketRef refBase_ = 0;         // lane << kLaneShift
  std::uint32_t slots_ = 0;       // local slot count
  std::uint32_t highWater_ = 0;   // local slots below this had a previous tenant
  std::uint64_t reuses_ = 0;
#ifndef NDEBUG
  std::vector<std::uint8_t> live_;  // double-recycle guard
#endif
};

}  // namespace hxwar::net
