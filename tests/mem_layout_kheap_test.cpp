// Tests for the Figure-3 VA layouts / unification checks (§3.1) and the
// per-core kernel heap with cross-kernel free (§3.3).
#include <gtest/gtest.h>

#include "src/mem/kheap.hpp"
#include "src/mem/va_layout.hpp"

namespace pd::mem {
namespace {

TEST(VaLayout, LinuxConstantsMatchFigure3) {
  const KernelLayout l = linux_layout();
  EXPECT_EQ(l.direct_map.start, 0xFFFF'8800'0000'0000ull);
  EXPECT_EQ(l.direct_map.size(), 64ull << 40);
  EXPECT_EQ(l.valloc.start, 0xFFFF'C900'0000'0000ull);
  EXPECT_EQ(l.image.start, 0xFFFF'FFFF'8000'0000ull);
  EXPECT_EQ(l.module_space.start, 0xFFFF'FFFF'A000'0000ull);
}

TEST(VaLayout, OriginalMcKernelFailsUnification) {
  const auto report = check_unification(linux_layout(), mckernel_original_layout());
  EXPECT_FALSE(report.unified());
  // All three §3.1 requirements are violated by the original layout.
  EXPECT_FALSE(report.images_disjoint);
  EXPECT_FALSE(report.direct_maps_coincide);
  EXPECT_FALSE(report.lwk_image_mappable);
  EXPECT_EQ(report.violations.size(), 3u);
}

TEST(VaLayout, UnifiedMcKernelPassesAllRequirements) {
  const auto report = check_unification(linux_layout(), mckernel_unified_layout());
  EXPECT_TRUE(report.images_disjoint);
  EXPECT_TRUE(report.direct_maps_coincide);
  EXPECT_TRUE(report.lwk_image_mappable);
  EXPECT_TRUE(report.unified());
  EXPECT_TRUE(report.violations.empty());
}

TEST(VaLayout, DirectMapTranslationAgreesAcrossKernels) {
  const KernelLayout linux_l = linux_layout();
  const KernelLayout mck = mckernel_unified_layout();
  const PhysAddr pa = 0x1234'5678'9000ull;
  // Same kmalloc'd pointer is dereferenceable in both kernels (req. 2).
  EXPECT_EQ(linux_l.direct_map_va(pa), mck.direct_map_va(pa));
  EXPECT_EQ(mck.direct_map_pa(linux_l.direct_map_va(pa)), pa);
}

TEST(VaLayout, UnifiedImageSitsAtTopOfModuleSpace) {
  const KernelLayout linux_l = linux_layout();
  const KernelLayout mck = mckernel_unified_layout();
  EXPECT_TRUE(linux_l.module_space.contains_range(mck.image));
  // "Top of the Linux module space": less than 32 MiB of slack above it.
  EXPECT_LT(linux_l.module_space.end - mck.image.end, 32ull << 20);
}

TEST(KernelHeap, LocalAllocFree) {
  KernelHeap heap({0, 1, 2, 3}, ForeignFreePolicy::fail);
  auto a = heap.kmalloc(256, 2);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(heap.stats().allocs, 1u);
  EXPECT_EQ(heap.stats().bytes_live, 256u);
  EXPECT_TRUE(heap.kfree(*a, 3).ok());  // any owned CPU may free
  EXPECT_EQ(heap.stats().bytes_live, 0u);
  EXPECT_EQ(heap.live_blocks(), 0u);
}

TEST(KernelHeap, AllocOnForeignCpuRejected) {
  KernelHeap heap({4, 5}, ForeignFreePolicy::fail);
  EXPECT_EQ(heap.kmalloc(64, 0).error(), Errno::eperm);
}

TEST(KernelHeap, ForeignFreeFailsUnderOriginalPolicy) {
  // The original McKernel allocator: kfree() on a Linux CPU fails — the
  // exact defect §3.3 describes for SDMA completion processing.
  KernelHeap heap({60, 61, 62, 63}, ForeignFreePolicy::fail);
  auto a = heap.kmalloc(128, 60);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(heap.kfree(*a, /*linux cpu=*/0).error(), Errno::eperm);
  EXPECT_EQ(heap.stats().rejected_frees, 1u);
  EXPECT_EQ(heap.live_blocks(), 1u) << "block must remain live after the failed free";
}

TEST(KernelHeap, ForeignFreeRoutedToRemoteQueue) {
  KernelHeap heap({60, 61}, ForeignFreePolicy::remote_queue);
  auto a = heap.kmalloc(128, 60);
  ASSERT_TRUE(a.ok());
  // Linux CPU 0 runs the completion callback and frees LWK memory.
  EXPECT_TRUE(heap.kfree(*a, 0).ok());
  EXPECT_EQ(heap.stats().remote_frees, 1u);
  EXPECT_EQ(heap.remote_queue_depth(60), 1u);
  EXPECT_EQ(heap.live_blocks(), 1u) << "reclaim happens at drain time";
  EXPECT_EQ(heap.drain_remote_frees(60), 1u);
  EXPECT_EQ(heap.live_blocks(), 0u);
  EXPECT_EQ(heap.stats().bytes_live, 0u);
}

TEST(KernelHeap, DrainOnWrongCpuReclaimsNothing) {
  KernelHeap heap({60, 61}, ForeignFreePolicy::remote_queue);
  auto a = heap.kmalloc(128, 60);
  ASSERT_TRUE(heap.kfree(*a, 0).ok());
  EXPECT_EQ(heap.drain_remote_frees(61), 0u);
  EXPECT_EQ(heap.remote_queue_depth(60), 1u);
}

TEST(KernelHeap, DataIsRealZeroedMemory) {
  KernelHeap heap({0}, ForeignFreePolicy::fail);
  auto a = heap.kmalloc(64, 0);
  ASSERT_TRUE(a.ok());
  auto bytes = heap.data(*a);
  ASSERT_EQ(bytes.size(), 64u);
  for (auto b : bytes) EXPECT_EQ(b, 0);
  bytes[40] = 0x2A;  // write through; later readers see it
  EXPECT_EQ(heap.data(*a)[40], 0x2A);
  EXPECT_TRUE(heap.data(0xDEADBEEF).empty());
}

TEST(KernelHeap, DistinctAddressesCachelineSpaced) {
  KernelHeap heap({0}, ForeignFreePolicy::fail);
  auto a = heap.kmalloc(1, 0);
  auto b = heap.kmalloc(1, 0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_GE(*b - *a, 64u);
}

TEST(KernelHeap, FreeUnknownAddressRejected) {
  KernelHeap heap({0}, ForeignFreePolicy::remote_queue);
  EXPECT_EQ(heap.kfree(0x1234, 0).error(), Errno::einval);
}

TEST(KernelHeapSlab, LocalFreeParksOnMagazineAndKmallocReuses) {
  KernelHeap heap({0}, ForeignFreePolicy::fail);
  auto a = heap.kmalloc(192, 0);  // the SDMA completion-metadata size
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(heap.stats().host_allocs, 1u);
  heap.data(*a)[7] = 0x55;  // dirty it; reuse must re-zero
  ASSERT_TRUE(heap.kfree(*a, 0).ok());
  EXPECT_EQ(heap.magazine_depth(0), 1u);
  EXPECT_EQ(heap.stats().slab_recycles, 1u);
  EXPECT_TRUE(heap.data(*a).empty()) << "parked block is not live";

  auto b = heap.kmalloc(192, 0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a) << "steady state pops the same block back";
  EXPECT_EQ(heap.stats().slab_reuses, 1u);
  EXPECT_EQ(heap.stats().host_allocs, 1u) << "no second host allocation";
  EXPECT_EQ(heap.magazine_depth(0), 0u);
  auto bytes = heap.data(*b);
  ASSERT_EQ(bytes.size(), 192u);
  for (auto byte : bytes) ASSERT_EQ(byte, 0) << "reused block must be zeroed";
}

TEST(KernelHeapSlab, SameClassServesSmallerRequest) {
  KernelHeap heap({0}, ForeignFreePolicy::fail);
  auto a = heap.kmalloc(192, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap.kfree(*a, 0).ok());
  auto b = heap.kmalloc(150, 0);  // also rounds to the 192 class
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a);
  EXPECT_EQ(heap.stats().slab_reuses, 1u);
  EXPECT_EQ(heap.data(*b).size(), 150u) << "data() reflects the requested size";
}

TEST(KernelHeapSlab, MagazinesArePerCore) {
  KernelHeap heap({0, 1}, ForeignFreePolicy::fail);
  auto a = heap.kmalloc(192, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap.kfree(*a, 1).ok());  // freed on a different owned core
  // The block belongs to its *owner* core's magazine, so core 0 reuses it.
  EXPECT_EQ(heap.magazine_depth(0), 1u);
  EXPECT_EQ(heap.magazine_depth(1), 0u);
}

TEST(KernelHeapSlab, DrainedRemoteFreesLandOnMagazineInOneSplice) {
  KernelHeap heap({60}, ForeignFreePolicy::remote_queue);
  std::vector<PhysAddr> addrs;
  for (int i = 0; i < 3; ++i) {
    auto a = heap.kmalloc(192, 60);
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  for (const PhysAddr a : addrs)
    ASSERT_TRUE(heap.kfree(a, /*linux cpu=*/0).ok());
  EXPECT_EQ(heap.magazine_depth(60), 0u) << "nothing parked until the drain";
  EXPECT_EQ(heap.drain_remote_frees(60), 3u);
  EXPECT_EQ(heap.remote_queue_depth(60), 0u);
  EXPECT_EQ(heap.magazine_depth(60), 3u);
  EXPECT_EQ(heap.stats().slab_recycles, 3u);
  // Steady state: all three come back with zero host allocations.
  const std::uint64_t host_before = heap.stats().host_allocs;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(heap.kmalloc(192, 60).ok());
  EXPECT_EQ(heap.stats().host_allocs, host_before);
  EXPECT_EQ(heap.stats().slab_reuses, 3u);
  EXPECT_EQ(heap.magazine_depth(60), 0u);
}

TEST(KernelHeapSlab, OversizedBlocksBypassMagazines) {
  KernelHeap heap({0}, ForeignFreePolicy::fail);
  auto a = heap.kmalloc(8192, 0);  // above the largest (4096) class
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap.kfree(*a, 0).ok());
  EXPECT_EQ(heap.magazine_depth(0), 0u);
  EXPECT_EQ(heap.stats().slab_recycles, 0u);
  auto b = heap.kmalloc(8192, 0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(heap.stats().slab_reuses, 0u);
  EXPECT_EQ(heap.stats().host_allocs, 2u);
}

}  // namespace
}  // namespace pd::mem
