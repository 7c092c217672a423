#include "src/mem/address_space.hpp"

#include <algorithm>
#include <cassert>

namespace pd::mem {

AddressSpace::AddressSpace(PhysMap& phys, BackingPolicy policy, MemKind preferred_kind,
                           VirtAddr mmap_base, std::uint64_t rng_seed)
    : phys_(phys),
      policy_(policy),
      preferred_kind_(preferred_kind),
      mmap_cursor_(mmap_base),
      rng_(rng_seed) {}

AddressSpace::~AddressSpace() {
  // Return all anonymous backings to the physical allocator.
  for (auto& [start, vma] : vmas_)
    if (!vma.device) release_backing(vma);
}

Result<VirtAddr> AddressSpace::reserve_va(std::uint64_t len, std::uint64_t align) {
  // ENOMEM once the cursor would leave the user range: a range past it is
  // one get_user_pages() and every driver refuse.
  const VirtAddr addr = page_ceil(mmap_cursor_, align);
  if (!user_range_ok(addr, len)) return Errno::enomem;
  mmap_cursor_ = addr + len;
  return addr;
}

Result<VirtAddr> AddressSpace::mmap_anonymous(std::uint64_t len, std::uint32_t prot) {
  // do_mmap's length checks; the second also keeps page_ceil from wrapping.
  if (len == 0) return Errno::einval;
  if (len > kUserVaEnd) return Errno::enomem;
  len = page_ceil(len, kPage4K);
  const bool lwk = policy_ == BackingPolicy::lwk_contig;
  auto va = reserve_va(len, lwk && len >= kPage2M ? kPage2M : kPage4K);
  if (!va.ok()) return va.error();

  // Both kernels take the largest power-of-two block (<= what remains)
  // first, halving on allocation failure down to 4 KiB.
  std::vector<Backing> backings;
  for (std::uint64_t remaining = len; remaining > 0;) {
    std::uint64_t chunk = std::uint64_t(1) << BuddyAllocator::order_for(remaining);
    if (chunk > remaining) chunk >>= 1;
    Result<PhysAddr> pa = phys_.alloc(chunk, preferred_kind_);
    while (!pa.ok() && chunk > kPage4K) pa = phys_.alloc(chunk >>= 1, preferred_kind_);
    if (!pa.ok()) {
      for (const auto& b : backings) phys_.free(b.pa, b.len);
      return pa.error();
    }
    backings.push_back(Backing{*pa, chunk, kPage4K});
    remaining -= chunk;
  }

  VirtAddr cur = *va;
  if (lwk) {
    // McKernel maps each block in place, with 2 MiB leaves where both
    // addresses are aligned, and pins everything up front.
    for (auto& b : backings) {
      if (b.len >= kPage2M && page_aligned(cur, kPage2M) && page_aligned(b.pa, kPage2M))
        b.page = kPage2M;
      Status s = pt_.map_range(cur, b.pa, b.len, b.page, prot);
      assert(s.ok());
      (void)s;
      cur += b.len;
    }
    vma_pinned_frames_ += len / kPage4K;
  } else {
    // Linux maps 4 KiB leaves over the blocks' frames in shuffled order:
    // a long-running kernel's page pool is not contiguous, so virtually
    // adjacent pages are rarely physically adjacent.
    std::vector<PhysAddr> frames;
    frames.reserve(len / kPage4K);
    for (const auto& b : backings)
      for (std::uint64_t off = 0; off < b.len; off += kPage4K) frames.push_back(b.pa + off);
    for (std::size_t i = frames.size(); i > 1; --i)
      std::swap(frames[i - 1], frames[rng_.next_below(i)]);
    for (const PhysAddr frame : frames) {
      Status s = pt_.map(cur, frame, kPage4K, prot);
      assert(s.ok());
      (void)s;
      cur += kPage4K;
    }
  }
  // An LWK VMA is the pin: its frames stay pinned until munmap releases them.
  vmas_.emplace(*va, Vma{*va, *va + len, prot, /*pinned=*/lwk, /*device=*/false});
  backings_.emplace(*va, std::move(backings));
  return *va;
}

Result<VirtAddr> AddressSpace::mmap_device(PhysAddr pa, std::uint64_t len, std::uint32_t prot) {
  if (len == 0 || !page_aligned(pa, kPage4K)) return Errno::einval;
  if (len > kUserVaEnd) return Errno::enomem;
  len = page_ceil(len, kPage4K);
  auto va = reserve_va(len, kPage4K);
  if (!va.ok()) return va.error();
  Status s = pt_.map_range(*va, pa, len, kPage4K, prot);
  if (!s.ok()) return s.error();
  Vma vma{*va, *va + len, prot, /*pinned=*/true, /*device=*/true};
  vmas_.emplace(*va, vma);
  return *va;
}

void AddressSpace::release_backing(const Vma& vma) {
  auto it = backings_.find(vma.start);
  if (it == backings_.end()) return;
  if (vma.pinned) vma_pinned_frames_ -= (vma.end - vma.start) / kPage4K;
  for (const auto& b : it->second) phys_.free(b.pa, b.len);
  backings_.erase(it);
}

Status AddressSpace::munmap(VirtAddr addr, std::uint64_t len) {
  // __do_munmap's range check, before page_ceil can wrap a huge length.
  if (!user_range_ok(addr, len)) return Errno::einval;
  auto it = vmas_.find(addr);
  if (it == vmas_.end() || it->second.end - it->second.start != page_ceil(len, kPage4K))
    return Errno::einval;
  const Vma vma = it->second;
  pt_.unmap_range(vma.start, vma.end - vma.start);
  if (!vma.device) release_backing(vma);
  vmas_.erase(it);
  ++map_generation_;
  return Status::success();
}

bool AddressSpace::range_mapped(VirtAddr va, std::uint64_t len) const {
  if (len == 0 || !user_range_ok(va, len)) return false;
  // VMAs are page aligned, so covering every byte covers every page; hop
  // from VMA to VMA until the range is covered or a gap shows.
  for (VirtAddr cur = va; cur < va + len;) {
    const Vma* vma = find_vma(cur);
    if (vma == nullptr) return false;
    cur = vma->end;
  }
  return true;
}

Result<PinnedPages> AddressSpace::get_user_pages(VirtAddr va, std::uint64_t len) {
  if (len == 0) return Errno::einval;
  // Check the range is mapped before sizing the frame list from `len`.
  if (!range_mapped(va, len)) return Errno::efault;
  const VirtAddr start = page_floor(va, kPage4K);
  const VirtAddr end = page_ceil(va + len, kPage4K);
  PinnedPages pages;
  pages.frames.reserve((end - start) / kPage4K);
  for (VirtAddr cur = start; cur < end; cur += kPage4K) {
    auto t = pt_.translate(cur);
    if (!t) {
      put_user_pages(pages);  // unpin what we already took
      return Errno::efault;
    }
    const PhysAddr frame = page_floor(t->pa, kPage4K);
    ++gup_pins_[frame / kPage4K];
    pages.frames.push_back(frame);
  }
  return pages;
}

void AddressSpace::put_user_pages(const PinnedPages& pages) {
  for (PhysAddr frame : pages.frames) put_user_page(frame);
}

void AddressSpace::put_user_page(PhysAddr frame) {
  std::uint32_t* pins = gup_pins_.find(frame / kPage4K);
  assert(pins != nullptr && "put_user_page on a frame without a gup pin");
  if (--*pins == 0) gup_pins_.erase(frame / kPage4K);
}

Result<std::vector<PhysExtent>> AddressSpace::physical_extents(VirtAddr va, std::uint64_t len,
                                                               std::uint64_t max_extent) const {
  std::vector<PhysExtent> extents;
  Status s = physical_extents(va, len, max_extent, extents);
  if (!s.ok()) return s.error();
  return extents;
}

Status AddressSpace::physical_extents(VirtAddr va, std::uint64_t len, std::uint64_t max_extent,
                                      std::vector<PhysExtent>& extents) const {
  extents.clear();
  if (len == 0) return Errno::einval;
  if (!user_range_ok(va, len)) return Errno::efault;
  VirtAddr cur = va;
  const VirtAddr end = va + len;
  while (cur < end) {
    auto t = pt_.translate(cur);
    if (!t) return Errno::efault;
    // Bytes until the end of this leaf page.
    const std::uint64_t in_page = t->page - (cur & (t->page - 1));
    std::uint64_t run = std::min<std::uint64_t>(in_page, end - cur);
    // Merge with the previous extent when physically adjacent.
    if (!extents.empty() && extents.back().pa + extents.back().len == t->pa &&
        (max_extent == 0 || extents.back().len < max_extent)) {
      const std::uint64_t room =
          max_extent == 0 ? run : std::min(run, max_extent - extents.back().len);
      extents.back().len += room;
      if (room < run) extents.push_back(PhysExtent{t->pa + room, run - room});
    } else {
      extents.push_back(PhysExtent{t->pa, run});
    }
    // Split oversized extents down to max_extent.
    if (max_extent != 0 && extents.back().len > max_extent) {
      PhysExtent big = extents.back();
      extents.pop_back();
      std::uint64_t off = 0;
      while (off < big.len) {
        const std::uint64_t piece = std::min(max_extent, big.len - off);
        extents.push_back(PhysExtent{big.pa + off, piece});
        off += piece;
      }
    }
    cur += run;
  }
  return Status::success();
}

const Vma* AddressSpace::find_vma(VirtAddr va) const {
  auto it = vmas_.upper_bound(va);
  if (it == vmas_.begin()) return nullptr;
  --it;
  return va < it->second.end ? &it->second : nullptr;
}

bool AddressSpace::backs_pinned_vma(PhysAddr frame) const {
  for (const auto& [start, list] : backings_) {
    if (!vmas_.at(start).pinned) continue;
    for (const auto& b : list)
      if (frame >= b.pa && frame < b.pa + b.len) return true;
  }
  return false;
}

std::uint64_t AddressSpace::pinned_frame_count() const {
  // Frames of live pinned VMAs, plus each gup-pinned frame that backs none.
  std::uint64_t n = vma_pinned_frames_;
  gup_pins_.for_each([&](std::uint64_t frame, std::uint32_t) {
    if (!backs_pinned_vma(frame * kPage4K)) ++n;
  });
  return n;
}

bool AddressSpace::is_pinned(PhysAddr frame) const {
  return gup_pins_.find(frame / kPage4K) != nullptr ||
         backs_pinned_vma(page_floor(frame, kPage4K));
}

double AddressSpace::large_page_fraction() const {
  std::uint64_t large = 0, total = 0;
  for (const auto& [start, list] : backings_) {
    for (const auto& b : list) {
      total += b.len;
      if (b.page == kPage2M) large += b.len;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(large) / static_cast<double>(total);
}

}  // namespace pd::mem
