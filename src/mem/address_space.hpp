// Process/kernel address space: VMA bookkeeping + page-table backing with a
// per-kernel placement policy.
//
// The policy difference is the heart of paper §3.4:
//
//   * `BackingPolicy::linux_4k` — anonymous memory is mapped page by page
//     with 4 KiB leaves over shuffled frames, so adjacent virtual pages are
//     rarely physically adjacent, as on a long-running Linux node. Pages
//     are not pinned; drivers must use get_user_pages() to pin them.
//
//   * `BackingPolicy::lwk_contig` — McKernel's policy: anonymous mappings
//     are mapped in place over their blocks, using 2 MiB page-table leaves
//     when alignment permits, and are pinned at creation (unmapped only by
//     explicit user request).
//
// Both policies take their frames the same way: the largest power-of-two
// buddy block no bigger than what remains, halved on failure down to 4 KiB,
// one `Backing` record per block. Only the mapping differs.
//
// Pins are kept at the granularity each kernel pins at: an LWK mapping is
// pinned as a whole by its VMA (`Vma::pinned`), and get_user_pages() pins
// count per 4 KiB frame in an open-addressed table (`FlatMap`).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/flat_map.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/mem/page_table.hpp"
#include "src/mem/phys.hpp"
#include "src/mem/types.hpp"

namespace pd::mem {

enum class BackingPolicy { linux_4k, lwk_contig };

/// One virtual memory area.
struct Vma {
  VirtAddr start = 0;
  VirtAddr end = 0;  // exclusive
  std::uint32_t prot = 0;
  bool pinned = false;  // its frames stay pinned for the VMA's whole life
  bool device = false;  // device mapping (no physical frames owned)
};

/// A physically contiguous run backing part of a virtual range.
struct PhysExtent {
  PhysAddr pa = 0;
  std::uint64_t len = 0;
};

/// Result of get_user_pages(): pinned 4 KiB frames, one per page.
struct PinnedPages {
  std::vector<PhysAddr> frames;
};

class AddressSpace {
 public:
  /// `mmap_base`: where mappings are placed. The cursor only grows, so a
  /// virtual range is never handed out again after munmap.
  AddressSpace(PhysMap& phys, BackingPolicy policy, MemKind preferred_kind,
               VirtAddr mmap_base, std::uint64_t rng_seed = 1);
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  BackingPolicy policy() const { return policy_; }

  /// Anonymous mmap; returns the chosen virtual address. EINVAL for a zero
  /// length; ENOMEM when the mapping would not fit in the user range or
  /// physical memory runs out.
  Result<VirtAddr> mmap_anonymous(std::uint64_t len, std::uint32_t prot);

  /// Map a device range (no frames allocated; pa supplied by the device).
  Result<VirtAddr> mmap_device(PhysAddr pa, std::uint64_t len, std::uint32_t prot);

  /// Unmap a previously mapped region. EINVAL unless [addr, addr+len)
  /// passes `user_range_ok` and exactly matches a VMA. Pinned LWK memory is
  /// released here too — this is the "user requested operation" that is
  /// allowed to unpin.
  Status munmap(VirtAddr addr, std::uint64_t len);

  std::optional<Translation> translate(VirtAddr va) const { return pt_.translate(va); }

  /// Linux-style get_user_pages(): pin and return the 4 KiB frames backing
  /// [va, va+len). Fails with EFAULT if any page is unmapped or the range
  /// fails `user_range_ok`.
  Result<PinnedPages> get_user_pages(VirtAddr va, std::uint64_t len);
  void put_user_pages(const PinnedPages& pages);
  /// Release one frame's get_user_pages() pin.
  void put_user_page(PhysAddr frame);

  /// LWK-style page-table walk: physically contiguous runs covering
  /// [va, va+len), each at most `max_extent` bytes (0 = unlimited).
  /// Requires the range to be mapped and to pass `user_range_ok`; EFAULT
  /// otherwise.
  Result<std::vector<PhysExtent>> physical_extents(VirtAddr va, std::uint64_t len,
                                                   std::uint64_t max_extent) const;

  /// Output-buffer variant of the walk: fills `out` (cleared first, capacity
  /// reused) instead of allocating a fresh vector — the allocation-free form
  /// the fast path and ExtentCache build on. On error `out` is unspecified.
  Status physical_extents(VirtAddr va, std::uint64_t len, std::uint64_t max_extent,
                          std::vector<PhysExtent>& out) const;

  /// Monotone counter bumped by every munmap(); a cached translation (see
  /// ExtentCache) filled at the current generation needs no further check.
  std::uint64_t map_generation() const { return map_generation_; }

  /// Whether every page of [va, va+len) lies in a live VMA (false for a
  /// range failing `user_range_ok`). Exact proof
  /// that a translation cached at any earlier generation is still valid:
  /// mmap never hands out a virtual address twice (the cursor only grows),
  /// so a page that is mapped now still maps the frame it was cached with.
  bool range_mapped(VirtAddr va, std::uint64_t len) const;

  const Vma* find_vma(VirtAddr va) const;
  std::size_t vma_count() const { return vmas_.size(); }

  /// A 4 KiB frame is pinned while it backs a live pinned VMA or holds a
  /// get_user_pages() pin, and counts once when both hold — so a gup pin
  /// on LWK memory counts, and so does one that outlives a munmap. Both
  /// accessors are exact; they scan the live mappings, so they are meant
  /// for checks, not hot paths.
  std::uint64_t pinned_frame_count() const;
  bool is_pinned(PhysAddr frame) const;

  /// Fraction of currently mapped anonymous bytes backed by 2 MiB leaves.
  double large_page_fraction() const;

 private:
  /// One buddy block of an anonymous mapping.
  struct Backing {
    PhysAddr pa;
    std::uint64_t len;      // allocation unit handed back to PhysMap
    std::uint64_t page;     // leaf size used in the page table
  };

  Result<VirtAddr> reserve_va(std::uint64_t len, std::uint64_t align);
  void release_backing(const Vma& vma);
  bool backs_pinned_vma(PhysAddr frame) const;

  PhysMap& phys_;
  BackingPolicy policy_;
  MemKind preferred_kind_;
  PageTable pt_;
  VirtAddr mmap_cursor_;
  Rng rng_;
  std::uint64_t map_generation_ = 0;

  std::map<VirtAddr, Vma> vmas_;                         // keyed by start
  std::map<VirtAddr, std::vector<Backing>> backings_;    // keyed by VMA start
  std::uint64_t vma_pinned_frames_ = 0;  // 4 KiB frames backing live pinned VMAs
  FlatMap<std::uint32_t> gup_pins_;      // frame number -> get_user_pages() pins
};

}  // namespace pd::mem
