#include "src/mem/extent_cache.hpp"

#include <algorithm>
#include <cassert>

namespace pd::mem {

ExtentCache::ExtentCache(std::size_t capacity) : capacity_(capacity) { assert(capacity_ > 0); }

ExtentCache::Entry* ExtentCache::select_victim() {
  // Pinned entries are in-flight (a send is mid-way through a rendezvous
  // window): never victims, whatever their score.
  Entry* best = nullptr;
  // Size-aware retention value: an entry is worth keeping in proportion to
  // how often it hits and how many resident bytes each hit saves walking,
  // decayed by how long it has sat unused. Large persistent windows keep a
  // high score through bursts of small one-shot buffers; the burst evicts
  // its own kind instead.
  auto score = [this](const Entry& e) {
    const double value = static_cast<double>(1 + e.hit_count) * static_cast<double>(e.len);
    const double age = static_cast<double>(tick_ - e.last_used) + 1.0;
    return value / age;
  };
  for (Entry& e : entries_) {
    if (e.pin_count > 0) continue;
    if (best == nullptr || score(e) < score(*best)) best = &e;
  }
  return best;
}

ExtentCache::Entry* ExtentCache::find_entry(VirtAddr va, std::uint64_t len,
                                            std::uint64_t max_extent) {
  for (Entry& e : entries_)
    if (e.va == va && e.len == len && e.max_extent == max_extent) return &e;
  return nullptr;
}

bool ExtentCache::pin(VirtAddr va, std::uint64_t len, std::uint64_t max_extent) {
  Entry* e = find_entry(va, len, max_extent);
  if (e == nullptr) return false;
  ++e->pin_count;
  return true;
}

void ExtentCache::unpin(VirtAddr va, std::uint64_t len, std::uint64_t max_extent) {
  Entry* e = find_entry(va, len, max_extent);
  if (e == nullptr || e->pin_count == 0) return;
  --e->pin_count;
  if (e->pin_count == 0) shrink_to_capacity();
}

std::size_t ExtentCache::pinned_entries() const {
  std::size_t n = 0;
  for (const Entry& e : entries_)
    if (e.pin_count > 0) ++n;
  return n;
}

void ExtentCache::shrink_to_capacity() {
  // A pin-forced overflow ends here: drop the lowest-value unpinned
  // entries until the cache is back at its configured size.
  while (entries_.size() > capacity_) {
    Entry* victim = select_victim();
    if (victim == nullptr) return;  // still all pinned
    ++stats_.evictions;
    if (victim != &entries_.back()) *victim = std::move(entries_.back());
    entries_.pop_back();
  }
}

Result<std::span<const PhysExtent>> ExtentCache::lookup(const AddressSpace& as, VirtAddr va,
                                                        std::uint64_t len,
                                                        std::uint64_t max_extent,
                                                        Outcome* outcome) {
  ++tick_;
  Entry* entry = find_entry(va, len, max_extent);
  if (entry != nullptr &&
      (entry->generation == as.map_generation() || as.range_mapped(va, len))) {
    // Still mapped, so still backed by the frames it was cached with.
    // Refresh the generation so the next lookup takes the equality path.
    entry->generation = as.map_generation();
    ++stats_.hits;
    ++entry->hit_count;
    entry->last_used = tick_;
    if (outcome != nullptr) *outcome = Outcome::hit;
    return std::span<const PhysExtent>(entry->extents);
  }

  // A known entry whose range is no longer mapped falls through to the
  // re-walk below, which faults and drops it.
  Outcome miss_kind = Outcome::miss;
  if (entry == nullptr) {
    if (entries_.size() < capacity_) {
      entry = &entries_.emplace_back();
    } else if (Entry* victim = select_victim(); victim != nullptr) {
      // Evict the lowest-retention-value slot; its vector capacity is reused.
      entry = victim;
      ++stats_.evictions;
      miss_kind = Outcome::evicted_small;
    } else {
      // Every resident entry is pinned by an in-flight send: overflow
      // capacity rather than kill a window; unpin() shrinks back.
      entry = &entries_.emplace_back();
    }
    entry->va = va;
    entry->len = len;
    entry->max_extent = max_extent;
    entry->hit_count = 0;
  }

  Status walked = as.physical_extents(va, len, max_extent, entry->extents);
  if (!walked.ok()) {
    // Drop the slot: a kept slot would hold the failed walk's partial
    // extents under some key a later lookup could match. Any pin dies
    // with it; the holder's unpin() finds nothing and no-ops.
    if (entry != &entries_.back()) *entry = std::move(entries_.back());
    entries_.pop_back();
    return walked.error();
  }
  entry->generation = as.map_generation();
  entry->last_used = tick_;
  ++stats_.misses;
  if (outcome != nullptr) *outcome = miss_kind;
  return std::span<const PhysExtent>(entry->extents);
}

}  // namespace pd::mem
