// Translation/extent cache for the LWK fast path (registration cache).
//
// The PicoDriver fast paths walk page tables instead of get_user_pages()
// (§3.4) — cheap, but still O(pages) per call. HPC middleware (PSM2's TID
// cache, libfabric memory-registration caches) amortizes exactly this:
// repeated sends/TID registrations of the same pinned buffer should pay the
// walk once. ExtentCache memoizes `physical_extents` results per
// (va, len, max_extent) key.
//
// Validation is exact: a stale generation alone does not kill an entry.
// When the address space's map generation has moved since the fill, the
// entry is still a hit if every page of its range lies in a live VMA
// (AddressSpace::range_mapped) — the address space never hands a virtual
// range out twice, so a mapped page still maps the frame it was cached
// with. Otherwise the range was unmapped: the lookup re-walks, the walk
// faults, and the slot is dropped. A cached entry can therefore never hand
// out frames that were returned to the allocator.
//
// Eviction is size-aware: entries are scored by hit_count × resident
// bytes, decayed by LRU age, so the large persistent windows PSM registers
// survive bursts of small transient sends (the thrash problem pure LRU has
// with mixed-lifetime workloads). Entries can additionally be pinned
// (pin/unpin) for the duration of an in-flight send: a pinned entry is
// never an eviction victim, whatever its score.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.hpp"
#include "src/mem/address_space.hpp"

namespace pd::mem {

class ExtentCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;     // key not cached (cold, or evicted earlier)
    std::uint64_t evictions = 0;  // entries pushed out at capacity
  };

  /// What one lookup() did. `evicted_small` is a cold miss that had to push
  /// out the lowest-retention-value (the small/transient) entry to make room.
  enum class Outcome { hit, miss, evicted_small };

  /// `capacity` > 0: entries retained before eviction.
  explicit ExtentCache(std::size_t capacity = 64);

  /// Resolve [va, va+len) against `as`. On a hit the cached runs are
  /// returned without touching the page table; on a miss the walk runs
  /// into a slot's storage, reusing its capacity. A walk that fails leaves
  /// nothing cached. The returned span is valid until the next lookup() on
  /// this cache.
  Result<std::span<const PhysExtent>> lookup(const AddressSpace& as, VirtAddr va,
                                             std::uint64_t len, std::uint64_t max_extent,
                                             Outcome* outcome = nullptr);

  /// Pin the entry for this key so eviction never selects it — for
  /// in-flight rendezvous windows that must stay resident for the duration
  /// of a send. Returns false when the key is not cached: nothing to
  /// protect, nothing to unpin. Pins nest; when every entry is pinned a
  /// cold miss temporarily overflows capacity instead of killing a window,
  /// and unpin() shrinks back.
  bool pin(VirtAddr va, std::uint64_t len, std::uint64_t max_extent);
  void unpin(VirtAddr va, std::uint64_t len, std::uint64_t max_extent);
  std::size_t pinned_entries() const;

  const Stats& stats() const { return stats_; }
  std::size_t entries() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    VirtAddr va = 0;
    std::uint64_t len = 0;
    std::uint64_t max_extent = 0;
    std::uint64_t generation = 0;
    std::uint64_t last_used = 0;
    std::uint64_t hit_count = 0;
    std::uint32_t pin_count = 0;  // > 0: never an eviction victim
    std::vector<PhysExtent> extents;
  };

  /// Lowest-retention-value unpinned entry, or nullptr when all are pinned.
  Entry* select_victim();
  Entry* find_entry(VirtAddr va, std::uint64_t len, std::uint64_t max_extent);
  /// Drop low-value unpinned entries until back within capacity (after a
  /// pin-forced overflow ends).
  void shrink_to_capacity();

  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::vector<Entry> entries_;  // few entries; linear scan beats hashing
  Stats stats_;
};

}  // namespace pd::mem
