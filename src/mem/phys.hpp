// Physical memory map and buddy page allocator.
//
// A node's physical memory is a set of NUMA domains (KNL SNC-4: four MCDRAM
// + four DDR4 domains). Each domain is served by a binary-buddy allocator
// (orders 4 KiB … 1 GiB) so that physically contiguous multi-page blocks —
// the property McKernel's memory manager exploits (paper §3.4) — are a real
// allocator outcome here, not an assumption.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.hpp"
#include "src/mem/types.hpp"

namespace pd::mem {

/// Binary buddy allocator over one contiguous physical range.
class BuddyAllocator {
 public:
  static constexpr int kMinOrder = 12;  // 4 KiB
  static constexpr int kMaxOrder = 30;  // 1 GiB

  /// `base` and `size` must be 4 KiB aligned; size need not be a power of 2.
  BuddyAllocator(PhysAddr base, std::uint64_t size);

  /// Allocate a block of exactly 2^order bytes, naturally aligned.
  Result<PhysAddr> alloc_order(int order);

  /// Allocate the smallest block covering `bytes`.
  Result<PhysAddr> alloc(std::uint64_t bytes);

  /// Free a block previously returned by alloc/alloc_order.
  void free(PhysAddr addr, int order);
  void free_bytes(PhysAddr addr, std::uint64_t bytes) { free(addr, order_for(bytes)); }

  static int order_for(std::uint64_t bytes);

  std::uint64_t free_bytes_total() const { return free_total_; }
  std::uint64_t capacity() const { return capacity_; }
  PhysAddr base() const { return base_; }
  bool contains(PhysAddr addr) const { return addr >= base_ && addr < base_ + span_; }

 private:
  std::optional<PhysAddr> take_block(int order);
  void insert_block(int order, PhysAddr addr);
  bool remove_block(int order, PhysAddr addr);

  PhysAddr base_;
  std::uint64_t span_;      // aligned span the buddy math runs over
  std::uint64_t capacity_;  // usable bytes handed to free lists
  std::uint64_t free_total_ = 0;
  std::vector<std::vector<PhysAddr>> free_lists_;  // index: order - kMinOrder
};

/// One NUMA domain.
struct NumaDomain {
  std::string name;
  MemKind kind;
  BuddyAllocator allocator;
};

/// The node's physical memory map.
class PhysMap {
 public:
  /// KNL-ish default: `numa_per_kind` domains each of MCDRAM and DDR.
  static PhysMap knl(std::uint64_t mcdram_bytes, std::uint64_t ddr_bytes, int numa_per_kind);

  void add_domain(std::string name, MemKind kind, PhysAddr base, std::uint64_t size);

  /// Allocate `bytes` (rounded to the covering power of two) preferring
  /// `kind`, falling back to the other kind when exhausted (the paper's
  /// "prioritize MCDRAM, fall back to DRAM" policy).
  Result<PhysAddr> alloc(std::uint64_t bytes, MemKind preferred);

  /// NUMA-aware form: try the home domain first (a socket's near
  /// partition), then every other domain of the same kind, then anything —
  /// the graceful far-fallback the kheap partitions follow. `home_domain`
  /// indexes `domain()`.
  Result<PhysAddr> alloc_near(std::uint64_t bytes, std::size_t home_domain);

  void free(PhysAddr addr, std::uint64_t bytes);

  /// Domain holding `addr` (placement introspection: which socket a block
  /// actually landed on after alloc_near's fallback walk). nullopt for an
  /// address outside every domain.
  std::optional<std::size_t> domain_of(PhysAddr addr) const;

  std::size_t domain_count() const { return domains_.size(); }
  const NumaDomain& domain(std::size_t i) const { return domains_[i]; }
  std::uint64_t free_bytes(MemKind kind) const;

 private:
  std::vector<NumaDomain> domains_;
  std::size_t next_preferred_ = 0;  // round-robin within preferred kind
};

}  // namespace pd::mem
