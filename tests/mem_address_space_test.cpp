// Tests for AddressSpace: the Linux-vs-LWK backing policies, pinning,
// get_user_pages, physical-extent discovery (the §3.4 mechanism), and the
// translation/extent cache layered on top of it.
#include <gtest/gtest.h>

#include <set>

#include "src/common/units.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/extent_cache.hpp"

namespace pd::mem {
namespace {

PhysMap small_map() { return PhysMap::knl(64_MiB, 256_MiB, 1); }

std::uint64_t free_total(const PhysMap& phys) {
  return phys.free_bytes(MemKind::mcdram) + phys.free_bytes(MemKind::ddr);
}

constexpr VirtAddr kMmapBase = 0x0000'2000'0000ull;

TEST(AddressSpaceLinux, MmapBacksEveryPage) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  auto va = as.mmap_anonymous(64_KiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  for (std::uint64_t off = 0; off < 64_KiB; off += kPage4K)
    EXPECT_TRUE(as.translate(*va + off).has_value());
}

TEST(AddressSpaceLinux, PagesAreScattered) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  auto va = as.mmap_anonymous(1_MiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  // Count adjacent virtual pages that are also physically adjacent; the
  // shuffled backing should make this rare (Linux host after uptime).
  int contiguous = 0, total = 0;
  for (std::uint64_t off = kPage4K; off < 1_MiB; off += kPage4K) {
    const auto prev = as.translate(*va + off - kPage4K);
    const auto cur = as.translate(*va + off);
    ASSERT_TRUE(prev && cur);
    ++total;
    if (prev->pa + kPage4K == cur->pa) ++contiguous;
  }
  EXPECT_LT(contiguous, total / 4) << "Linux policy should scatter frames";
}

TEST(AddressSpaceLinux, MunmapReturnsMemoryToPhysMap) {
  PhysMap phys = small_map();
  const std::uint64_t before = free_total(phys);
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  auto va = as.mmap_anonymous(8_MiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(before - free_total(phys), 8_MiB);
  ASSERT_TRUE(as.munmap(*va, 8_MiB).ok());
  EXPECT_EQ(free_total(phys), before);
}

TEST(AddressSpaceLinux, LargeMappingStaysScattered) {
  // However the frames are allocated, an 8 MiB mapping must look like a
  // long-running Linux node's: every page its own frame, and virtual
  // neighbours almost never physical neighbours.
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  auto va = as.mmap_anonymous(8_MiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  std::set<PhysAddr> frames;
  int contiguous = 0;
  PhysAddr prev = 0;
  for (std::uint64_t off = 0; off < 8_MiB; off += kPage4K) {
    const auto t = as.translate(*va + off);
    ASSERT_TRUE(t.has_value());
    ASSERT_EQ(t->page, kPage4K);
    frames.insert(t->pa);
    if (off > 0 && prev + kPage4K == t->pa) ++contiguous;
    prev = t->pa;
  }
  EXPECT_EQ(frames.size(), 8_MiB / kPage4K);
  EXPECT_LT(contiguous * 100, 2047) << contiguous << " of 2047 neighbours are contiguous";
}

TEST(AddressSpaceLinux, FailedMmapRollsBack) {
  PhysMap phys = small_map();
  const std::uint64_t before = free_total(phys);
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  EXPECT_EQ(as.mmap_anonymous(512_MiB, kProtRead | kProtWrite).error(), Errno::enomem);
  EXPECT_EQ(free_total(phys), before);
  EXPECT_EQ(as.vma_count(), 0u);
}

TEST(AddressSpaceLinux, NotPinnedUntilGetUserPages) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  auto va = as.mmap_anonymous(16_KiB, kProtRead);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(as.pinned_frame_count(), 0u);
  auto pages = as.get_user_pages(*va, 16_KiB);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(pages->frames.size(), 4u);
  EXPECT_EQ(as.pinned_frame_count(), 4u);
  as.put_user_pages(*pages);
  EXPECT_EQ(as.pinned_frame_count(), 0u);
}

TEST(AddressSpaceLinux, GetUserPagesUnmappedFaults) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  auto va = as.mmap_anonymous(8_KiB, kProtRead);
  ASSERT_TRUE(va.ok());
  // Walk past the end of the VMA.
  auto pages = as.get_user_pages(*va, 16_KiB);
  EXPECT_EQ(pages.error(), Errno::efault);
  EXPECT_EQ(as.pinned_frame_count(), 0u) << "partial pins must be released";
}

TEST(AddressSpaceLwk, LargePagesUsedForBigMappings) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto va = as.mmap_anonymous(8_MiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  auto t = as.translate(*va);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->page, kPage2M);
  EXPECT_GT(as.large_page_fraction(), 0.9);
}

TEST(AddressSpaceLwk, MappingsArePinnedAtCreation) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto va = as.mmap_anonymous(2_MiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(as.pinned_frame_count(), 2_MiB / kPage4K);
  auto t = as.translate(*va);
  EXPECT_TRUE(as.is_pinned(t->pa));
  // munmap is the user-requested operation that releases the pin.
  ASSERT_TRUE(as.munmap(*va, 2_MiB).ok());
  EXPECT_EQ(as.pinned_frame_count(), 0u);
}

TEST(AddressSpaceLwk, FailedMmapLeavesNoPins) {
  // 8 MiB of memory in all cannot back 16 MiB: the mapping fails partway
  // through, after some chunks were already allocated, and its rollback
  // must leave neither pins nor allocated frames behind.
  PhysMap phys = PhysMap::knl(4_MiB, 4_MiB, 1);
  const std::uint64_t free_before =
      phys.free_bytes(MemKind::mcdram) + phys.free_bytes(MemKind::ddr);
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  EXPECT_EQ(as.mmap_anonymous(16_MiB, kProtRead | kProtWrite).error(), Errno::enomem);
  EXPECT_EQ(as.pinned_frame_count(), 0u);
  EXPECT_EQ(as.vma_count(), 0u);
  EXPECT_EQ(phys.free_bytes(MemKind::mcdram) + phys.free_bytes(MemKind::ddr), free_before);
  // The memory is whole again: a mapping that fits succeeds and is pinned.
  auto va = as.mmap_anonymous(4_MiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(as.pinned_frame_count(), 4_MiB / kPage4K);
}

TEST(AddressSpaceLwk, GupPinsUnionWithVmaPins) {
  // A frame counts once whether its VMA, a gup pin or both hold it, and a
  // gup pin keeps counting after munmap until it is put.
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto va = as.mmap_anonymous(64_KiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  auto pages = as.get_user_pages(*va, 16_KiB);
  ASSERT_TRUE(pages.ok());
  EXPECT_EQ(as.pinned_frame_count(), 64_KiB / kPage4K) << "gup on LWK memory adds no frame";
  ASSERT_TRUE(as.munmap(*va, 64_KiB).ok());
  EXPECT_EQ(as.pinned_frame_count(), 4u) << "gup pins outlive the VMA";
  for (const PhysAddr frame : pages->frames) EXPECT_TRUE(as.is_pinned(frame));
  as.put_user_page(pages->frames[0]);
  EXPECT_FALSE(as.is_pinned(pages->frames[0]));
  EXPECT_EQ(as.pinned_frame_count(), 3u);
  pages->frames.erase(pages->frames.begin());
  as.put_user_pages(*pages);
  EXPECT_EQ(as.pinned_frame_count(), 0u);
}

TEST(AddressSpaceLwk, PhysicallyContiguousBacking) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto va = as.mmap_anonymous(4_MiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  auto extents = as.physical_extents(*va, 4_MiB, 0);
  ASSERT_TRUE(extents.ok());
  // A fresh buddy pool should back 4 MiB with very few contiguous runs.
  EXPECT_LE(extents->size(), 2u);
}

TEST(PhysicalExtents, RespectsMaxExtent) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto va = as.mmap_anonymous(64_KiB, kProtRead);
  ASSERT_TRUE(va.ok());
  const std::uint64_t kMax = 10240;  // the HFI 10 KiB SDMA descriptor cap
  auto extents = as.physical_extents(*va, 64_KiB, kMax);
  ASSERT_TRUE(extents.ok());
  std::uint64_t total = 0;
  for (const auto& e : *extents) {
    EXPECT_LE(e.len, kMax);
    total += e.len;
  }
  EXPECT_EQ(total, 64_KiB);
  // Contiguous backing → ceil(65536/10240) = 7 descriptors, vs 16 at 4 KiB.
  EXPECT_EQ(extents->size(), 7u);
}

TEST(PhysicalExtents, LinuxScatterYieldsPageGrainExtents) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  auto va = as.mmap_anonymous(64_KiB, kProtRead);
  ASSERT_TRUE(va.ok());
  auto extents = as.physical_extents(*va, 64_KiB, 10240);
  ASSERT_TRUE(extents.ok());
  // Mostly single-page extents.
  EXPECT_GE(extents->size(), 12u);
}

TEST(PhysicalExtents, UnmappedRangeFaults) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  EXPECT_EQ(as.physical_extents(0xDEAD000, 4096, 0).error(), Errno::efault);
}

TEST(AddressSpace, MunmapExactVmaOnly) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  auto va = as.mmap_anonymous(16_KiB, kProtRead);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(as.munmap(*va + kPage4K, 4_KiB).error(), Errno::einval);
  EXPECT_TRUE(as.munmap(*va, 16_KiB).ok());
  EXPECT_FALSE(as.translate(*va).has_value());
  EXPECT_EQ(as.vma_count(), 0u);
}

TEST(AddressSpace, MunmapReturnsMemoryToPhysMap) {
  PhysMap phys = small_map();
  const std::uint64_t before = phys.free_bytes(MemKind::ddr) + phys.free_bytes(MemKind::mcdram);
  {
    AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
    auto va = as.mmap_anonymous(8_MiB, kProtRead);
    ASSERT_TRUE(va.ok());
    ASSERT_TRUE(as.munmap(*va, 8_MiB).ok());
  }
  const std::uint64_t after = phys.free_bytes(MemKind::ddr) + phys.free_bytes(MemKind::mcdram);
  EXPECT_EQ(before, after);
}

TEST(AddressSpace, WrappingMmapLengthIsRejected) {
  // page_ceil would wrap this length to 0, and a zero-length VMA at the
  // cursor would shadow the next mapping and lose its frames.
  for (const BackingPolicy policy : {BackingPolicy::linux_4k, BackingPolicy::lwk_contig}) {
    PhysMap phys = small_map();
    const std::uint64_t before = free_total(phys);
    AddressSpace as(phys, policy, MemKind::mcdram, kMmapBase);
    EXPECT_EQ(as.mmap_anonymous(0xFFFF'FFFF'FFFF'F001ull, kProtRead).error(), Errno::enomem);
    EXPECT_EQ(as.mmap_anonymous(0, kProtRead).error(), Errno::einval);
    EXPECT_EQ(as.vma_count(), 0u);
    auto va = as.mmap_anonymous(64_KiB, kProtRead | kProtWrite);
    ASSERT_TRUE(va.ok());
    EXPECT_EQ(as.vma_count(), 1u);
    EXPECT_EQ(as.munmap(*va, 0xFFFF'FFFF'FFFF'F001ull).error(), Errno::einval);
    ASSERT_TRUE(as.munmap(*va, 64_KiB).ok());
    EXPECT_EQ(free_total(phys), before);
  }
}

TEST(AddressSpace, MmapPastUserRangeIsEnomem) {
  // A space based 64 KiB below the end of the user range has room for one
  // 64 KiB mapping; the next would end past it.
  for (const BackingPolicy policy : {BackingPolicy::linux_4k, BackingPolicy::lwk_contig}) {
    PhysMap phys = small_map();
    const std::uint64_t before = free_total(phys);
    AddressSpace as(phys, policy, MemKind::mcdram, kUserVaEnd - 64_KiB);
    auto va = as.mmap_anonymous(64_KiB, kProtRead | kProtWrite);
    ASSERT_TRUE(va.ok());
    EXPECT_EQ(*va + 64_KiB, kUserVaEnd);
    EXPECT_EQ(as.mmap_anonymous(64_KiB, kProtRead).error(), Errno::enomem);
    EXPECT_EQ(as.mmap_anonymous(kUserVaEnd + 1, kProtRead).error(), Errno::enomem);
    EXPECT_EQ(as.mmap_device(0xF000'0000ull, 4_KiB, kProtRead).error(), Errno::enomem);
    EXPECT_EQ(as.vma_count(), 1u);
    EXPECT_EQ(before - free_total(phys), 64_KiB);
  }
}

TEST(AddressSpace, DeviceMappingDoesNotConsumePhys) {
  PhysMap phys = small_map();
  const std::uint64_t before = phys.free_bytes(MemKind::mcdram) + phys.free_bytes(MemKind::ddr);
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  auto va = as.mmap_device(0xF000'0000ull, 64_KiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(phys.free_bytes(MemKind::mcdram) + phys.free_bytes(MemKind::ddr), before);
  auto t = as.translate(*va + 0x10);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, 0xF000'0010ull);
}

TEST(AddressSpace, MapGenerationBumpsOnSuccessfulMunmapOnly) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  const std::uint64_t g0 = as.map_generation();
  auto va = as.mmap_anonymous(64_KiB, kProtRead);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(as.map_generation(), g0) << "mmap must not invalidate cached runs";
  EXPECT_FALSE(as.munmap(*va + kPage4K, 4_KiB).ok());
  EXPECT_EQ(as.map_generation(), g0) << "failed munmap must not invalidate";
  ASSERT_TRUE(as.munmap(*va, 64_KiB).ok());
  EXPECT_EQ(as.map_generation(), g0 + 1);
}

TEST(PhysicalExtents, OutBufferOverloadMatchesAllocatingOverload) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto va = as.mmap_anonymous(64_KiB, kProtRead);
  ASSERT_TRUE(va.ok());
  auto ref = as.physical_extents(*va, 64_KiB, 10240);
  ASSERT_TRUE(ref.ok());
  std::vector<PhysExtent> out;
  ASSERT_TRUE(as.physical_extents(*va, 64_KiB, 10240, out).ok());
  ASSERT_EQ(out.size(), ref->size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].pa, (*ref)[i].pa);
    EXPECT_EQ(out[i].len, (*ref)[i].len);
  }
  // A second fill clears, not appends.
  ASSERT_TRUE(as.physical_extents(*va, 64_KiB, 10240, out).ok());
  EXPECT_EQ(out.size(), ref->size());
}

TEST(ExtentCache, RepeatLookupHitsWithoutRewalking) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto va = as.mmap_anonymous(64_KiB, kProtRead);
  ASSERT_TRUE(va.ok());
  ExtentCache cache;
  ExtentCache::Outcome outcome;
  auto first = cache.lookup(as, *va, 64_KiB, 10240, &outcome);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(outcome, ExtentCache::Outcome::miss);
  EXPECT_EQ(first->size(), 7u);  // ceil(65536/10240), contiguous backing
  auto second = cache.lookup(as, *va, 64_KiB, 10240, &outcome);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(outcome, ExtentCache::Outcome::hit);
  EXPECT_EQ(second->size(), 7u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.entries(), 1u);
  // A different max_extent is a different key, not a hit.
  ASSERT_TRUE(cache.lookup(as, *va, 64_KiB, kPage2M, &outcome).ok());
  EXPECT_EQ(outcome, ExtentCache::Outcome::miss);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(ExtentCache, NonOverlappingMunmapNoLongerInvalidates) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto buf = as.mmap_anonymous(64_KiB, kProtRead);
  auto scratch = as.mmap_anonymous(16_KiB, kProtRead);
  ASSERT_TRUE(buf.ok() && scratch.ok());
  ExtentCache cache;
  ExtentCache::Outcome outcome;
  ASSERT_TRUE(cache.lookup(as, *buf, 64_KiB, 10240, &outcome).ok());
  EXPECT_EQ(outcome, ExtentCache::Outcome::miss);
  // Unmapping a disjoint range moves the generation, but the cached range
  // is still mapped: still a hit, no re-walk.
  ASSERT_TRUE(as.munmap(*scratch, 16_KiB).ok());
  auto again = cache.lookup(as, *buf, 64_KiB, 10240, &outcome);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(outcome, ExtentCache::Outcome::hit);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(again->size(), 7u);
}

TEST(ExtentCache, OverlappingMunmapRangeInvalidates) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto buf = as.mmap_anonymous(64_KiB, kProtRead);
  ASSERT_TRUE(buf.ok());
  ExtentCache cache;
  ExtentCache::Outcome outcome;
  ASSERT_TRUE(cache.lookup(as, *buf, 64_KiB, 10240, &outcome).ok());
  EXPECT_EQ(outcome, ExtentCache::Outcome::miss);
  // Unmapping the cached buffer itself must be caught by the mapping check.
  ASSERT_TRUE(as.munmap(*buf, 64_KiB).ok());
  auto stale = cache.lookup(as, *buf, 64_KiB, 10240, &outcome);
  EXPECT_FALSE(stale.ok()) << "re-walk of an unmapped range must fault, not hit";
  EXPECT_EQ(stale.error(), Errno::efault);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ExtentCache, EntryOutlivesAnyNumberOfDisjointUnmaps) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto buf = as.mmap_anonymous(64_KiB, kProtRead);
  ASSERT_TRUE(buf.ok());
  ExtentCache cache;
  ExtentCache::Outcome outcome;
  ASSERT_TRUE(cache.lookup(as, *buf, 64_KiB, 10240, &outcome).ok());
  // Far more disjoint mmap/munmap pairs than any bounded unmap history
  // could hold: the buffer stays mapped, so the entry stays a hit.
  for (int i = 0; i < 100; ++i) {
    auto scratch = as.mmap_anonymous(16_KiB, kProtRead);
    ASSERT_TRUE(scratch.ok());
    ASSERT_TRUE(as.munmap(*scratch, 16_KiB).ok());
  }
  auto again = cache.lookup(as, *buf, 64_KiB, 10240, &outcome);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(outcome, ExtentCache::Outcome::hit);
  EXPECT_EQ(cache.stats().misses, 1u);
  auto truth = as.physical_extents(*buf, 64_KiB, 10240);
  ASSERT_TRUE(truth.ok());
  ASSERT_EQ(again->size(), truth->size());
  for (std::size_t i = 0; i < truth->size(); ++i) {
    EXPECT_EQ((*again)[i].pa, (*truth)[i].pa);
    EXPECT_EQ((*again)[i].len, (*truth)[i].len);
  }
}

TEST(AddressSpace, RangeMappedTracksUnmaps) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto a = as.mmap_anonymous(16_KiB, kProtRead);
  auto b = as.mmap_anonymous(16_KiB, kProtRead);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(*b, *a + 16_KiB) << "the two VMAs must be adjacent";
  EXPECT_TRUE(as.range_mapped(*a, 16_KiB));
  // A range across two adjacent VMAs is covered page for page.
  EXPECT_TRUE(as.range_mapped(*a + 100, 32_KiB - 100));
  ASSERT_TRUE(as.munmap(*b, 16_KiB).ok());
  EXPECT_TRUE(as.range_mapped(*a, 16_KiB));
  EXPECT_FALSE(as.range_mapped(*a, 32_KiB));
  // A one-byte query inside the unmapped VMA, and an unaligned query whose
  // edge page was unmapped, are both caught.
  EXPECT_FALSE(as.range_mapped(*b + 100, 1));
  EXPECT_FALSE(as.range_mapped(*b - 1, 2));
  EXPECT_TRUE(as.range_mapped(*b - 1, 1));
  EXPECT_FALSE(as.range_mapped(*a, 0));
}

TEST(AddressSpace, UnmappedVirtualRangeIsNeverReused) {
  // range_mapped() is an exact validity check only because a virtual
  // address, once unmapped, is never bound to another frame.
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  std::vector<std::pair<VirtAddr, VirtAddr>> released;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t len = (i % 3 == 0 ? 2_MiB : 4_KiB * (1 + i % 5));
    auto va = as.mmap_anonymous(len, kProtRead);
    ASSERT_TRUE(va.ok());
    for (const auto& [lo, hi] : released)
      EXPECT_TRUE(*va + len <= lo || hi <= *va) << "mmap reused an unmapped range";
    ASSERT_TRUE(as.munmap(*va, len).ok());
    released.emplace_back(*va, *va + page_ceil(len, kPage4K));
  }
  auto dev = as.mmap_device(0xF000'0000ull, 8_KiB, kProtRead);
  ASSERT_TRUE(dev.ok());
  for (const auto& [lo, hi] : released) EXPECT_TRUE(*dev + 8_KiB <= lo || hi <= *dev);
}

TEST(ExtentCache, ReMmapAfterMunmapRewalksNotStale) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto va = as.mmap_anonymous(64_KiB, kProtRead);
  ASSERT_TRUE(va.ok());
  ExtentCache cache;
  ASSERT_TRUE(cache.lookup(as, *va, 64_KiB, 10240).ok());
  ASSERT_TRUE(as.munmap(*va, 64_KiB).ok());
  auto va2 = as.mmap_anonymous(64_KiB, kProtRead);
  ASSERT_TRUE(va2.ok());
  ExtentCache::Outcome outcome;
  auto fresh = cache.lookup(as, *va2, 64_KiB, 10240, &outcome);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(outcome, ExtentCache::Outcome::hit);
  // The re-walked extents must match what the page table says *now*.
  auto truth = as.physical_extents(*va2, 64_KiB, 10240);
  ASSERT_TRUE(truth.ok());
  ASSERT_EQ(fresh->size(), truth->size());
  for (std::size_t i = 0; i < truth->size(); ++i)
    EXPECT_EQ((*fresh)[i].pa, (*truth)[i].pa);
}

TEST(ExtentCache, SizeAwareEvictionKeepsLargeHotWindow) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto window = as.mmap_anonymous(2_MiB, kProtRead);  // persistent PSM window
  ASSERT_TRUE(window.ok());
  ExtentCache cache(/*capacity=*/4);
  ExtentCache::Outcome outcome;
  ASSERT_TRUE(cache.lookup(as, *window, 2_MiB, 10240).ok());
  for (int i = 0; i < 2; ++i) {  // accumulate hits on the window
    ASSERT_TRUE(cache.lookup(as, *window, 2_MiB, 10240, &outcome).ok());
    EXPECT_EQ(outcome, ExtentCache::Outcome::hit);
  }
  // A burst of one-shot small buffers overflows the capacity. Under pure
  // LRU the window (oldest) would be the first victim; size-aware scoring
  // makes the burst evict its own kind instead.
  for (int i = 0; i < 8; ++i) {
    auto small = as.mmap_anonymous(8_KiB, kProtRead);
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(cache.lookup(as, *small, 8_KiB, 10240, &outcome).ok());
    EXPECT_NE(outcome, ExtentCache::Outcome::hit);
  }
  EXPECT_EQ(cache.stats().evictions, 5u);
  ASSERT_TRUE(cache.lookup(as, *window, 2_MiB, 10240, &outcome).ok());
  EXPECT_EQ(outcome, ExtentCache::Outcome::hit)
      << "the large hot window must survive the small-buffer burst";
}

TEST(ExtentCache, FaultingRangeIsNotCached) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  ExtentCache cache;
  EXPECT_EQ(cache.lookup(as, 0xDEAD000, 4096, 0).error(), Errno::efault);
  EXPECT_EQ(cache.lookup(as, 0xDEAD000, 4096, 0).error(), Errno::efault);
  EXPECT_EQ(cache.stats().hits, 0u) << "a failed walk must never turn into a hit";
  // A valid range still works after the failures.
  auto va = as.mmap_anonymous(16_KiB, kProtRead);
  ASSERT_TRUE(va.ok());
  ExtentCache::Outcome outcome;
  ASSERT_TRUE(cache.lookup(as, *va, 16_KiB, 10240, &outcome).ok());
  EXPECT_EQ(outcome, ExtentCache::Outcome::miss);
}

TEST(ExtentCache, FailedWalkLeavesNoAliasableSlot) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto buf = as.mmap_anonymous(64_KiB, kProtRead);
  ASSERT_TRUE(buf.ok());
  ExtentCache cache;
  // The walk runs off the end of the mapping: seven extents in, then a
  // fault. Nothing of it may stay behind in the cache.
  EXPECT_EQ(cache.lookup(as, *buf, 64_KiB + 4_KiB, 10240).error(), Errno::efault);
  EXPECT_EQ(cache.entries(), 0u);
  // The degenerate key must match a fresh walk (EINVAL), not a left-over
  // slot holding the failed walk's partial extents.
  EXPECT_EQ(cache.lookup(as, 0, 0, 10240).error(), Errno::einval);
  EXPECT_EQ(as.physical_extents(0, 0, 10240).error(), Errno::einval);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// Ranges a caller can pass that no mapping satisfies: one whose end wraps
// past 2^64, one of 2^46 bytes, and one past the 48 bits the page table
// indexes, which a walk would alias onto the page mapped at `va`.
struct BadRange {
  const char* what;
  VirtAddr va;
  std::uint64_t len;
};

std::vector<BadRange> bad_ranges(VirtAddr va) {
  return {{"wrapping", va, ~std::uint64_t{0} - va + 2},  // va + len == 1
          {"huge", va, 1ull << 46},
          {"non-canonical", va + (1ull << 48), kPage4K}};
}

TEST(UserRange, AccessOkBounds) {
  EXPECT_TRUE(user_range_ok(0, 0));
  EXPECT_TRUE(user_range_ok(kUserVaEnd - kPage4K, kPage4K));
  EXPECT_FALSE(user_range_ok(kUserVaEnd - kPage4K, kPage4K + 1));
  EXPECT_FALSE(user_range_ok(kUserVaEnd, 1));
  EXPECT_FALSE(user_range_ok(kPage4K, ~std::uint64_t{0}));
}

TEST(UserRange, GetUserPagesFaultsOnBadRanges) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  auto va = as.mmap_anonymous(64_KiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  for (const BadRange& r : bad_ranges(*va))
    EXPECT_EQ(as.get_user_pages(r.va, r.len).error(), Errno::efault) << r.what;
  EXPECT_EQ(as.pinned_frame_count(), 0u);
}

TEST(UserRange, PhysicalExtentsFaultOnBadRanges) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto va = as.mmap_anonymous(64_KiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  ExtentCache cache;
  std::vector<PhysExtent> out;
  for (const BadRange& r : bad_ranges(*va)) {
    EXPECT_EQ(as.physical_extents(r.va, r.len, 10240).error(), Errno::efault) << r.what;
    EXPECT_EQ(as.physical_extents(r.va, r.len, 10240, out).error(), Errno::efault) << r.what;
    EXPECT_EQ(cache.lookup(as, r.va, r.len, 10240).error(), Errno::efault) << r.what;
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(UserRange, RangeMappedIsFalseForBadRanges) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::lwk_contig, MemKind::mcdram, kMmapBase);
  auto va = as.mmap_anonymous(64_KiB, kProtRead | kProtWrite);
  ASSERT_TRUE(va.ok());
  EXPECT_TRUE(as.range_mapped(*va, 64_KiB));
  for (const BadRange& r : bad_ranges(*va)) EXPECT_FALSE(as.range_mapped(r.va, r.len)) << r.what;
}

TEST(AddressSpace, FindVma) {
  PhysMap phys = small_map();
  AddressSpace as(phys, BackingPolicy::linux_4k, MemKind::ddr, kMmapBase);
  auto va = as.mmap_anonymous(16_KiB, kProtRead);
  ASSERT_TRUE(va.ok());
  const Vma* vma = as.find_vma(*va + 100);
  ASSERT_NE(vma, nullptr);
  EXPECT_EQ(vma->start, *va);
  EXPECT_EQ(as.find_vma(*va + 64_KiB), nullptr);
}

}  // namespace
}  // namespace pd::mem
