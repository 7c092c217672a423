// Kernel heap with per-core slab free lists, NUMA-partitioned arenas, and
// cross-kernel free handling (paper §3.3).
//
// McKernel's allocator keeps per-core free lists, so kfree() must know
// which CPU it runs on. An SDMA completion IRQ, however, executes on a
// *Linux* CPU while freeing LWK-allocated metadata. The original allocator
// would fail there; the PicoDriver extension detects the foreign CPU and
// routes the block to a remote-free queue that the owning core drains.
//
// Steady-state fast-path allocations (the 192-byte completion metadata per
// SDMA send) are served from per-core size-class free lists: a block freed
// on its owner core — or drained from the remote queue — parks on the
// core's magazine for that size class, and the next kmalloc() of the class
// pops it back in O(1) with no host allocation. Only cold allocations and
// sizes above the largest class touch the host heap.
//
// Cold allocations are placement-aware: a NumaTopology maps each CPU to a
// socket, and each socket owns a near (MCDRAM-like) and a far (DDR-like)
// address partition with a byte budget. The cold path carves from the
// calling CPU's near partition, falling back to the same socket's far
// partition when the near budget is exhausted (then to any other socket's
// partitions before giving up). The drain side batches the remote-free
// queue per source socket: one pass per socket, so a queue full of
// Linux-side completion frees costs one cross-socket reclaim event per
// source socket instead of one per block.
//
// Every block moves through an explicit free-path state machine,
// live → queued → parked: a block foreign-freed onto the remote queue is
// `queued` — a second kfree() (from any CPU) is a caught double free, and
// data() no longer exposes its bytes — and only the owner's drain parks it
// on a magazine (or returns it to the host).
//
// Blocks carry real host bytes (`data()`): the simulated driver keeps its
// structure images in them, and the LWK reads those images through
// DWARF-extracted offsets — so the cross-kernel pointer story is exercised
// with actual memory, not just bookkeeping.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.hpp"
#include "src/mem/numa_topology.hpp"
#include "src/mem/types.hpp"

namespace pd::mem {

/// Policy for kfree() called on a CPU outside the owning kernel's set.
enum class ForeignFreePolicy {
  fail,          // original McKernel: allocator is per-core, call fails
  remote_queue,  // PicoDriver extension: enqueue for the owning core
};

/// Per-socket arena byte budgets (the partition capacity model). The
/// defaults are effectively unbounded — tests and benches shrink them to
/// exercise the far-fallback path.
struct PartitionBudget {
  std::uint64_t near_bytes = ~0ull;  // MCDRAM-like partition, per socket
  std::uint64_t far_bytes = ~0ull;   // DDR-like partition, per socket
};

class KernelHeap {
 public:
  struct Stats {
    std::uint64_t allocs = 0;
    std::uint64_t local_frees = 0;
    std::uint64_t remote_frees = 0;    // routed through the remote queue
    std::uint64_t rejected_frees = 0;  // failed under ForeignFreePolicy::fail
    std::uint64_t double_frees = 0;    // kfree of a block already queued/parked
    std::uint64_t bytes_live = 0;
    std::uint64_t slab_reuses = 0;     // kmalloc served from a per-core magazine
    std::uint64_t slab_recycles = 0;   // freed blocks parked on a magazine
    std::uint64_t host_allocs = 0;     // kmalloc that had to touch the host heap
    // --- placement outcomes (cold path only) -----------------------------
    std::uint64_t near_allocs = 0;          // carved from the caller's near partition
    std::uint64_t far_allocs = 0;           // DDR fallback or another socket's slice
    std::uint64_t partition_exhausted = 0;  // a near budget could not satisfy a carve
    // Cross-socket reclaim events during drain: one per remote source
    // socket per drain (the drain coalesces each socket's blocks).
    std::uint64_t cross_socket_drains = 0;
    // --- elastic ownership (adopt_cpu / release_cpu) ---------------------
    std::uint64_t cpu_adoptions = 0;   // cores added to the owned set
    std::uint64_t cpu_releases = 0;    // cores retired from the owned set
    std::uint64_t rehomed_blocks = 0;  // blocks re-owned by a release_cpu
  };

  /// Size classes served by the per-core magazines; anything larger falls
  /// back to a direct host allocation (and is returned to the host on free).
  static constexpr std::array<std::uint64_t, 8> kSizeClasses = {64,  128,  192,  256,
                                                                512, 1024, 2048, 4096};

  /// `owned_cpus`: logical CPU ids this kernel's allocator may run on.
  /// `heap_base`: simulated physical base of the heap arenas.
  /// This form has one socket and unbounded partitions.
  KernelHeap(std::vector<int> owned_cpus, ForeignFreePolicy policy,
             PhysAddr heap_base = 0x0000'00F0'0000'0000ull);

  /// NUMA form: `topo` maps every CPU on the node (owned and foreign) to a
  /// socket, `budget` bounds each socket's partitions.
  KernelHeap(std::vector<int> owned_cpus, ForeignFreePolicy policy, NumaTopology topo,
             PartitionBudget budget, PhysAddr heap_base = 0x0000'00F0'0000'0000ull);

  /// Allocate `size` bytes on behalf of `cpu` (must be an owned CPU).
  /// Returns the simulated physical address of the block.
  Result<PhysAddr> kmalloc(std::uint64_t size, int cpu);

  /// Free from any CPU. Foreign CPUs follow the configured policy. A block
  /// already queued for (or reclaimed by) a drain is a double free: EINVAL.
  Status kfree(PhysAddr addr, int cpu);

  /// Drain this core's remote-free queue (the owning kernel calls this
  /// periodically, e.g. on its scheduler tick). The queue is recycled in
  /// one batch per source socket and every block lands back on its owner's
  /// magazine. Returns blocks reclaimed.
  std::size_t drain_remote_frees(int cpu);

  /// --- elastic CPU ownership (§8.7) ---------------------------------------
  /// Add `cpu` to the owned set at runtime (a core handed to this kernel).
  /// It starts with empty magazines and an empty remote-free queue. EINVAL
  /// when already owned or negative.
  Status adopt_cpu(int cpu);
  /// Retire `cpu` from the owned set: its remote-free queue is drained, its
  /// parked magazine blocks are donated to a surviving core (same socket
  /// preferred), and every block it still owns — live or queued — is
  /// re-homed there so later foreign frees land on a queue somebody drains.
  /// `drained_out`, when non-null, receives the remote-free blocks
  /// reclaimed. EINVAL when not owned, EBUSY when it is the last owned CPU.
  Status release_cpu(int cpu, std::size_t* drained_out = nullptr);

  /// Host-memory view of a live block. Empty when not allocated — and once
  /// the block is parked on the remote-free queue: conceptually freed
  /// memory must not be scribbled on from IRQ context while it awaits the
  /// owner's drain.
  std::span<std::uint8_t> data(PhysAddr addr);

  bool owns_cpu(int cpu) const;
  std::size_t remote_queue_depth(int cpu) const;
  const Stats& stats() const { return stats_; }
  std::size_t live_blocks() const { return live_blocks_; }
  /// Blocks parked on `cpu`'s magazines across all size classes.
  std::size_t magazine_depth(int cpu) const;

  const NumaTopology& topology() const { return topo_; }
  /// Bytes carved so far from a socket's near / far partition.
  std::uint64_t near_used(int socket) const;
  std::uint64_t far_used(int socket) const;

 private:
  /// Free-path state machine. `parked` blocks sit on a magazine (owner may
  /// hand them out again); `queued` blocks await the owner's drain.
  enum class BlockState { parked, live, queued };

  struct Block {
    std::uint64_t size = 0;     // requested size (what data() exposes)
    std::uint64_t capacity = 0; // size-class bytes actually backing it
    int owner_cpu = -1;         // core whose magazine the block belongs to
    int arena_socket = -1;      // partition the address was carved from
    bool arena_near = false;    // near (MCDRAM-like) vs far partition
    BlockState state = BlockState::parked;
    std::unique_ptr<std::uint8_t[]> bytes;
  };

  struct RemoteFree {
    PhysAddr addr;
    int source_socket;  // socket of the CPU that called kfree
  };

  /// One partition's bump allocator over its address slice.
  struct Arena {
    PhysAddr next = 0;
    PhysAddr end = 0;
    std::uint64_t used = 0;
  };

  /// Index into kSizeClasses, or kSizeClasses.size() when oversized.
  static std::size_t class_for(std::uint64_t size);
  void park_on_magazine(PhysAddr addr, Block& block);
  /// Carve `capacity` address bytes for a cold allocation by `cpu`.
  Result<PhysAddr> carve(std::uint64_t capacity, int cpu, int* socket_out, bool* near_out);
  bool carve_from(Arena& arena, std::uint64_t budget, std::uint64_t capacity, PhysAddr* out);

  std::vector<int> owned_cpus_;
  ForeignFreePolicy policy_;
  NumaTopology topo_;
  PartitionBudget budget_;
  PhysAddr heap_base_;
  std::size_t live_blocks_ = 0;
  std::vector<Arena> near_arenas_;  // one per socket
  std::vector<Arena> far_arenas_;
  std::unordered_map<PhysAddr, Block> blocks_;
  // Per owned CPU: one free-list magazine per size class.
  std::unordered_map<int, std::array<std::vector<PhysAddr>, kSizeClasses.size()>> magazines_;
  std::map<int, std::deque<RemoteFree>> remote_free_queues_;  // keyed by owner cpu
  Stats stats_;
};

}  // namespace pd::mem
