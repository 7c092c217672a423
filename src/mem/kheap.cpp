#include "src/mem/kheap.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace pd::mem {

namespace {
// Address slice per (socket, near|far) partition. Budgets cap the bytes a
// partition may hold; the stride caps the address range it may span. Kept
// small enough that a full 4-socket LWK heap (8 slices) stays inside the
// 32 GiB gap before the Linux kernel's heap base — the unified direct map
// must keep the two heaps' addresses disjoint.
constexpr std::uint64_t kPartitionStride = 1ull << 31;  // 2 GiB per slice
}  // namespace

KernelHeap::KernelHeap(std::vector<int> owned_cpus, ForeignFreePolicy policy,
                       PhysAddr heap_base)
    : KernelHeap(std::move(owned_cpus), policy, NumaTopology(), PartitionBudget{}, heap_base) {}

KernelHeap::KernelHeap(std::vector<int> owned_cpus, ForeignFreePolicy policy,
                       NumaTopology topo, PartitionBudget budget, PhysAddr heap_base)
    : owned_cpus_(std::move(owned_cpus)),
      policy_(policy),
      topo_(topo),
      budget_(budget),
      heap_base_(heap_base) {
  for (int cpu : owned_cpus_) magazines_[cpu];  // one magazine set per core
  near_arenas_.resize(static_cast<std::size_t>(topo_.sockets()));
  far_arenas_.resize(static_cast<std::size_t>(topo_.sockets()));
  for (int s = 0; s < topo_.sockets(); ++s) {
    auto& near = near_arenas_[static_cast<std::size_t>(s)];
    auto& far = far_arenas_[static_cast<std::size_t>(s)];
    near.next = heap_base_ + static_cast<std::uint64_t>(2 * s) * kPartitionStride;
    near.end = near.next + kPartitionStride;
    far.next = heap_base_ + static_cast<std::uint64_t>(2 * s + 1) * kPartitionStride;
    far.end = far.next + kPartitionStride;
  }
}

bool KernelHeap::owns_cpu(int cpu) const {
  return std::find(owned_cpus_.begin(), owned_cpus_.end(), cpu) != owned_cpus_.end();
}

std::size_t KernelHeap::class_for(std::uint64_t size) {
  for (std::size_t i = 0; i < kSizeClasses.size(); ++i)
    if (size <= kSizeClasses[i]) return i;
  return kSizeClasses.size();
}

bool KernelHeap::carve_from(Arena& arena, std::uint64_t budget, std::uint64_t capacity,
                            PhysAddr* out) {
  if (arena.used + capacity > budget) return false;
  const PhysAddr spaced = page_ceil(arena.next + capacity, 64);  // cacheline spacing
  if (spaced > arena.end) return false;
  *out = arena.next;
  arena.next = spaced;
  arena.used += capacity;
  return true;
}

Result<PhysAddr> KernelHeap::carve(std::uint64_t capacity, int cpu, int* socket_out,
                                   bool* near_out) {
  const int home = topo_.socket_of(cpu);
  PhysAddr addr = 0;
  if (carve_from(near_arenas_[static_cast<std::size_t>(home)], budget_.near_bytes, capacity,
                 &addr)) {
    *socket_out = home;
    *near_out = true;
    ++stats_.near_allocs;
    return addr;
  }
  ++stats_.partition_exhausted;
  if (carve_from(far_arenas_[static_cast<std::size_t>(home)], budget_.far_bytes, capacity,
                 &addr)) {
    *socket_out = home;
    *near_out = false;
    ++stats_.far_allocs;
    return addr;
  }
  // Both home partitions exhausted: graceful spill to any other socket
  // (near slices first) before failing the allocation outright.
  for (int s = 0; s < topo_.sockets(); ++s) {
    if (s == home) continue;
    if (carve_from(near_arenas_[static_cast<std::size_t>(s)], budget_.near_bytes, capacity,
                   &addr)) {
      *socket_out = s;
      *near_out = true;
      ++stats_.far_allocs;
      return addr;
    }
    if (carve_from(far_arenas_[static_cast<std::size_t>(s)], budget_.far_bytes, capacity,
                   &addr)) {
      *socket_out = s;
      *near_out = false;
      ++stats_.far_allocs;
      return addr;
    }
  }
  return Errno::enomem;
}

Result<PhysAddr> KernelHeap::kmalloc(std::uint64_t size, int cpu) {
  if (size == 0) return Errno::einval;
  if (!owns_cpu(cpu)) return Errno::eperm;

  const std::size_t cls = class_for(size);
  if (cls < kSizeClasses.size()) {
    auto& magazine = magazines_[cpu][cls];
    if (!magazine.empty()) {
      const PhysAddr addr = magazine.back();
      magazine.pop_back();
      Block& block = blocks_[addr];
      block.size = size;
      block.owner_cpu = cpu;
      block.state = BlockState::live;
      std::memset(block.bytes.get(), 0, block.capacity);
      ++stats_.allocs;
      ++stats_.slab_reuses;
      stats_.bytes_live += size;
      ++live_blocks_;
      return addr;
    }
  }

  Block block;
  block.size = size;
  block.capacity = cls < kSizeClasses.size() ? kSizeClasses[cls] : size;
  block.owner_cpu = cpu;
  block.state = BlockState::live;
  block.bytes = std::make_unique<std::uint8_t[]>(block.capacity);
  std::memset(block.bytes.get(), 0, block.capacity);

  // Magazine refill / cold path: the address (the simulated placement)
  // comes from the calling CPU's partition.
  auto addr = carve(block.capacity, cpu, &block.arena_socket, &block.arena_near);
  if (!addr.ok()) return addr.error();
  blocks_.emplace(*addr, std::move(block));
  ++stats_.allocs;
  ++stats_.host_allocs;
  stats_.bytes_live += size;
  ++live_blocks_;
  return *addr;
}

void KernelHeap::park_on_magazine(PhysAddr addr, Block& block) {
  const std::size_t cls = class_for(block.capacity);
  if (cls < kSizeClasses.size() && owns_cpu(block.owner_cpu)) {
    block.state = BlockState::parked;
    magazines_[block.owner_cpu][cls].push_back(addr);
    ++stats_.slab_recycles;
  } else {
    // Returned to the host: the partition's byte budget frees up (the
    // address slice itself is bump-allocated and not reused).
    auto& arena = (block.arena_near ? near_arenas_
                                    : far_arenas_)[static_cast<std::size_t>(block.arena_socket)];
    arena.used -= block.capacity;
    blocks_.erase(addr);
  }
}

Status KernelHeap::kfree(PhysAddr addr, int cpu) {
  auto it = blocks_.find(addr);
  if (it == blocks_.end()) return Errno::einval;
  if (it->second.state != BlockState::live) {
    // Queued for a drain or already parked on a magazine: a double free.
    // The block used to stay `live` while queued, so a second foreign free
    // would re-enqueue it and double-count remote_frees — now it is caught.
    ++stats_.double_frees;
    return Errno::einval;
  }

  if (owns_cpu(cpu)) {
    stats_.bytes_live -= it->second.size;
    ++stats_.local_frees;
    --live_blocks_;
    park_on_magazine(addr, it->second);
    return Status::success();
  }

  if (policy_ == ForeignFreePolicy::fail) {
    // Original McKernel: the per-core free list for `cpu` does not exist.
    ++stats_.rejected_frees;
    return Errno::eperm;
  }

  // PicoDriver extension: park the block on the owner core's remote queue,
  // tagged with the freeing CPU's socket so the drain can batch per source.
  it->second.state = BlockState::queued;
  remote_free_queues_[it->second.owner_cpu].push_back(
      RemoteFree{addr, topo_.socket_of(cpu)});
  ++stats_.remote_frees;
  return Status::success();
}

std::size_t KernelHeap::drain_remote_frees(int cpu) {
  auto qit = remote_free_queues_.find(cpu);
  if (qit == remote_free_queues_.end() || qit->second.empty()) return 0;
  // Recycle every queued block, then clear. Nothing re-enters the queue
  // while parking, and clear() keeps the deque's chunk — so the
  // steady-state free/drain cycle never touches the host heap.
  std::deque<RemoteFree>& pending = qit->second;
  std::size_t drained = 0;
  const int owner_socket = topo_.socket_of(cpu);
  auto reclaim = [&](const RemoteFree& rf) {
    auto it = blocks_.find(rf.addr);
    if (it == blocks_.end() || it->second.state != BlockState::queued) return false;
    stats_.bytes_live -= it->second.size;
    --live_blocks_;
    park_on_magazine(rf.addr, it->second);
    ++drained;
    return true;
  };
  // One pass per source socket: all blocks a socket's CPUs freed come back
  // as one coalesced batch, so a completion-heavy queue costs one
  // cross-socket reclaim event per socket instead of one per block.
  for (int s = 0; s < topo_.sockets(); ++s) {
    bool any = false;
    for (const RemoteFree& rf : pending)
      if (rf.source_socket == s && reclaim(rf)) any = true;
    if (any && s != owner_socket) ++stats_.cross_socket_drains;
  }
  pending.clear();
  return drained;
}

Status KernelHeap::adopt_cpu(int cpu) {
  if (cpu < 0 || owns_cpu(cpu)) return Errno::einval;
  owned_cpus_.push_back(cpu);
  std::sort(owned_cpus_.begin(), owned_cpus_.end());
  magazines_[cpu];  // empty magazine set, like a boot-time core
  ++stats_.cpu_adoptions;
  return Status::success();
}

Status KernelHeap::release_cpu(int cpu, std::size_t* drained_out) {
  if (!owns_cpu(cpu)) return Errno::einval;
  if (owned_cpus_.size() <= 1) return Errno::ebusy;  // a heap needs an owner
  // Quiesce the departing core's remote-free queue while it can still be
  // drained under its own identity: blocks park on its magazines first and
  // are donated with the rest below.
  const std::size_t drained = drain_remote_frees(cpu);
  if (drained_out != nullptr) *drained_out = drained;
  // Heir: a surviving owned core, same socket preferred so donated blocks
  // keep their placement affinity.
  int heir = -1;
  for (int cand : owned_cpus_) {
    if (cand == cpu) continue;
    if (topo_.socket_of(cand) == topo_.socket_of(cpu)) {
      heir = cand;
      break;
    }
  }
  if (heir < 0)
    for (int cand : owned_cpus_)
      if (cand != cpu) {
        heir = cand;
        break;
      }
  // Donate the parked magazines class by class.
  if (auto mit = magazines_.find(cpu); mit != magazines_.end()) {
    for (std::size_t cls = 0; cls < kSizeClasses.size(); ++cls) {
      auto& from = mit->second[cls];
      for (const PhysAddr addr : from) {
        blocks_[addr].owner_cpu = heir;
        ++stats_.rehomed_blocks;
      }
      auto& to = magazines_[heir][cls];
      to.insert(to.end(), from.begin(), from.end());
      from.clear();
    }
    magazines_.erase(cpu);
  }
  // Live (and still-queued) blocks the core owns re-home too: an SDMA
  // completion freeing them later must find a queue somebody drains.
  for (auto& [addr, block] : blocks_)
    if (block.owner_cpu == cpu) {
      block.owner_cpu = heir;
      ++stats_.rehomed_blocks;
    }
  remote_free_queues_.erase(cpu);  // drained above; drop the empty deque
  owned_cpus_.erase(std::find(owned_cpus_.begin(), owned_cpus_.end(), cpu));
  ++stats_.cpu_releases;
  return Status::success();
}

std::span<std::uint8_t> KernelHeap::data(PhysAddr addr) {
  auto it = blocks_.find(addr);
  // Queued blocks are conceptually freed: their bytes must not be exposed
  // to (IRQ-context) writers while they await the owner's drain.
  if (it == blocks_.end() || it->second.state != BlockState::live) return {};
  return {it->second.bytes.get(), it->second.size};
}

std::size_t KernelHeap::remote_queue_depth(int cpu) const {
  auto it = remote_free_queues_.find(cpu);
  return it == remote_free_queues_.end() ? 0 : it->second.size();
}

std::size_t KernelHeap::magazine_depth(int cpu) const {
  auto it = magazines_.find(cpu);
  if (it == magazines_.end()) return 0;
  std::size_t total = 0;
  for (const auto& list : it->second) total += list.size();
  return total;
}

std::uint64_t KernelHeap::near_used(int socket) const {
  return near_arenas_[static_cast<std::size_t>(socket)].used;
}

std::uint64_t KernelHeap::far_used(int socket) const {
  return far_arenas_[static_cast<std::size_t>(socket)].used;
}

}  // namespace pd::mem
