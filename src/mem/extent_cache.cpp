#include "src/mem/extent_cache.hpp"

#include <algorithm>

namespace pd::mem {

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

  if (capacity_ == 0) {
    // Pass-through: walk into the scratch entry's storage, retain nothing.
    Status walked = as.physical_extents(va, len, max_extent, scratch_.extents);
    if (!walked.ok()) return walked.error();
    ++stats_.misses;
    if (outcome != nullptr) *outcome = Outcome::miss;
    return std::span<const PhysExtent>(scratch_.extents);
  }

  Entry* entry = find_entry(va, len, max_extent);

  Outcome miss_kind = Outcome::miss;
  if (entry != nullptr) {
    bool fresh = entry->generation == as.map_generation();
    if (!fresh) {
      // Range-precise check: only an unmap overlapping this entry's pages
      // proves it stale. When the log can clear it, refresh the generation
      // so the next lookup takes the cheap equality path again.
      switch (as.range_verdict_since(entry->va, entry->len, entry->generation)) {
        case RangeVerdict::intact:
          entry->generation = as.map_generation();
          fresh = true;
          break;
        case RangeVerdict::overlaps_unmap:
          miss_kind = Outcome::range_invalidated;
          break;
        case RangeVerdict::unknown:
          miss_kind = Outcome::generation_overflow;
          break;
      }
    }
    if (fresh) {
      ++stats_.hits;
      ++entry->hit_count;
      entry->last_used = tick_;
      if (outcome != nullptr) *outcome = Outcome::hit;
      return std::span<const PhysExtent>(entry->extents);
    }
  }

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
    // Keep the slot but poison the key so a later success does not alias.
    // Any pin dies with the key: the holder's unpin will no-op, and a
    // stranded pin must not block eviction of a now-meaningless slot.
    entry->va = 0;
    entry->len = 0;
    entry->hit_count = 0;
    entry->pin_count = 0;
    return walked.error();
  }
  entry->generation = as.map_generation();
  entry->last_used = tick_;
  switch (miss_kind) {
    case Outcome::miss:
    case Outcome::evicted_small:
      ++stats_.misses;
      break;
    case Outcome::range_invalidated:
      ++stats_.range_invalidations;
      break;
    case Outcome::generation_overflow:
      ++stats_.generation_overflows;
      break;
    case Outcome::hit:
      break;  // unreachable
  }
  if (outcome != nullptr) *outcome = miss_kind;
  return std::span<const PhysExtent>(entry->extents);
}

}  // namespace pd::mem
