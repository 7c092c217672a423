// Tests for instantiated kernel address spaces: 1 GiB direct maps, image
// mapping, and the §3.1 unification property checked at the page-table
// level — the same kmalloc pointer dereferences to the same physical byte
// in both kernels.
#include <gtest/gtest.h>

#include "src/common/units.hpp"
#include "src/mem/kernel_space.hpp"

namespace pd::mem {
namespace {

constexpr std::uint64_t kPhysBytes = 112ull << 30;  // the OFP node (16+96 GB)
constexpr PhysAddr kLinuxImagePhys = 0x0000'0004'0000'0000ull;  // 16 GiB
constexpr PhysAddr kMckImagePhys = 0x0000'0008'0000'0000ull;    // 32 GiB

TEST(PageTable1G, MapAndTranslate) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0, 0, kPage1G, kProtRead).ok());
  auto t = pt.translate(0x12345678);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, 0x12345678u);
  EXPECT_EQ(t->page, kPage1G);
  EXPECT_FALSE(pt.map(0x200000, 0, kPage2M, 0).ok()) << "covered by the 1G leaf";
  EXPECT_FALSE(pt.map(kPage1G / 2, 0, kPage1G, 0).ok()) << "alignment";
}

TEST(PageTable1G, SixtyFourTiBDirectMapIsCheap) {
  PageTable pt;
  ASSERT_TRUE(pt.map_range(0, 0, 64ull << 40, kPage1G, kProtRead).ok());
  EXPECT_EQ(pt.mapped_pages(), (64ull << 40) / kPage1G);
  EXPECT_EQ(pt.table_count(), 129u) << "the root and 128 tables of 1 GiB leaves";
  auto t = pt.translate((37ull << 40) + 12345);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, (37ull << 40) + 12345);
}

TEST(KernelSpace, LinuxBuildTranslatesDirectMapAndImage) {
  auto linux_as = KernelAddressSpace::build(linux_layout(), kPhysBytes, kLinuxImagePhys);
  ASSERT_TRUE(linux_as.ok());
  // kmalloc pointer → physical.
  const PhysAddr pa = 0x0000'0012'3456'7000ull;
  auto t = linux_as->translate(linux_as->direct_va(pa) & ((1ull << 48) - 1));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, pa);
  // Kernel text resolves into the image physical range.
  auto text = linux_as->translate(linux_layout().image.start & ((1ull << 48) - 1));
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(text->pa, kLinuxImagePhys);
}

TEST(KernelSpace, UnifiedLayoutsDereferenceIdentically) {
  auto linux_as = KernelAddressSpace::build(linux_layout(), kPhysBytes, kLinuxImagePhys);
  auto mck_as =
      KernelAddressSpace::build(mckernel_unified_layout(), kPhysBytes, kMckImagePhys);
  ASSERT_TRUE(linux_as.ok() && mck_as.ok());

  // §3.1 requirement 2, at the page-table level: the same kmalloc'd
  // pointer value reaches the same physical byte through either kernel.
  for (PhysAddr pa : {PhysAddr{0x1000}, PhysAddr{0x7'1234'5000}, PhysAddr{0x19'8000'0040}}) {
    const VirtAddr kmalloc_ptr = linux_as->direct_va(pa);
    EXPECT_EQ(kmalloc_ptr, mck_as->direct_va(pa));
    const VirtAddr canon = kmalloc_ptr & ((1ull << 48) - 1);
    auto via_linux = linux_as->translate(canon);
    auto via_mck = mck_as->translate(canon);
    ASSERT_TRUE(via_linux.has_value());
    ASSERT_TRUE(via_mck.has_value());
    EXPECT_EQ(via_linux->pa, via_mck->pa);
  }
}

TEST(KernelSpace, OriginalLayoutPointersDiverge) {
  auto linux_as = KernelAddressSpace::build(linux_layout(), kPhysBytes, kLinuxImagePhys);
  auto orig =
      KernelAddressSpace::build(mckernel_original_layout(), kPhysBytes, kMckImagePhys);
  ASSERT_TRUE(linux_as.ok() && orig.ok());
  const PhysAddr pa = 0x2'0000'1000;
  // The same physical byte has *different* kernel-virtual names — the
  // §3.1 problem the unified layout removes.
  EXPECT_NE(linux_as->direct_va(pa), orig->direct_va(pa));
  // And a Linux kmalloc pointer does not even translate in the original
  // McKernel (its 256 GiB direct map is at a different VA base).
  const VirtAddr linux_ptr = linux_as->direct_va(pa) & ((1ull << 48) - 1);
  EXPECT_FALSE(orig->translate(linux_ptr).has_value());
}

TEST(KernelSpace, ImageAliasMakesForeignTextTranslatable) {
  auto linux_as = KernelAddressSpace::build(linux_layout(), kPhysBytes, kLinuxImagePhys);
  ASSERT_TRUE(linux_as.ok());
  const KernelLayout mck = mckernel_unified_layout();

  // Before the vmap_area alias: the LWK callback address faults in Linux.
  const VirtAddr cb_text = (mck.image.start + 0x2000) & ((1ull << 48) - 1);
  EXPECT_FALSE(linux_as->translate(cb_text).has_value());

  // After LWK boot establishes the alias (§3.1 requirement 3):
  ASSERT_TRUE(linux_as->alias_image(mck.image, kMckImagePhys).ok());
  auto t = linux_as->translate(cb_text);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, kMckImagePhys + 0x2000);
  EXPECT_TRUE(t->prot & kProtExec);
}

TEST(KernelSpace, RejectsMisalignedImageBase) {
  EXPECT_FALSE(
      KernelAddressSpace::build(linux_layout(), kPhysBytes, 0x1234).ok());
}

TEST(KernelSpace, DirectMapCappedAtLayoutWindow) {
  // Asking for more physical memory than the layout's direct-map window
  // maps only the window (the model's 256 GiB original-McKernel map).
  auto orig = KernelAddressSpace::build(mckernel_original_layout(), 1ull << 40,
                                        kMckImagePhys);
  ASSERT_TRUE(orig.ok());
  const KernelLayout layout = mckernel_original_layout();
  const VirtAddr inside = (layout.direct_map.start + (100ull << 30)) & ((1ull << 48) - 1);
  const VirtAddr beyond = (layout.direct_map.start + (300ull << 30)) & ((1ull << 48) - 1);
  EXPECT_TRUE(orig->translate(inside).has_value());
  EXPECT_FALSE(orig->translate(beyond).has_value());
}

}  // namespace
}  // namespace pd::mem
