// Tests for the 4-level page table: mapping, translation, large pages,
// unmapping, rollback, and freeing tables as their last entry goes.
#include <gtest/gtest.h>

#include "src/mem/page_table.hpp"

namespace pd::mem {
namespace {

TEST(PageTable, Map4kTranslates) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x1000, 0xA000, kPage4K, kProtRead | kProtWrite).ok());
  auto t = pt.translate(0x1234);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, 0xA234u);
  EXPECT_EQ(t->page, kPage4K);
  EXPECT_EQ(t->prot, kProtRead | kProtWrite);
}

TEST(PageTable, UnmappedReturnsNullopt) {
  PageTable pt;
  EXPECT_FALSE(pt.translate(0x5000).has_value());
}

TEST(PageTable, Map2mTranslatesInterior) {
  PageTable pt;
  const VirtAddr va = 0x4000'0000;  // 2 MiB aligned
  const PhysAddr pa = 0x2000'0000;
  ASSERT_TRUE(pt.map(va, pa, kPage2M, kProtRead).ok());
  auto t = pt.translate(va + 0x12345);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, pa + 0x12345);
  EXPECT_EQ(t->page, kPage2M);
}

TEST(PageTable, RejectsMisalignment) {
  PageTable pt;
  EXPECT_FALSE(pt.map(0x1001, 0xA000, kPage4K, 0).ok());
  EXPECT_FALSE(pt.map(0x1000, 0xA001, kPage4K, 0).ok());
  EXPECT_FALSE(pt.map(kPage4K, 0, kPage2M, 0).ok());  // 4K-aligned only
  EXPECT_FALSE(pt.map(0, 0, 12345, 0).ok());          // bogus page size
}

TEST(PageTable, RejectsDoubleMap) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x1000, 0xA000, kPage4K, 0).ok());
  EXPECT_EQ(pt.map(0x1000, 0xB000, kPage4K, 0).error(), Errno::eexist);
}

TEST(PageTable, RejectsMappingUnderLargePage) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x4000'0000, 0x2000'0000, kPage2M, 0).ok());
  EXPECT_EQ(pt.map(0x4000'1000, 0xC000, kPage4K, 0).error(), Errno::eexist);
}

TEST(PageTable, UnmapRemoves) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x1000, 0xA000, kPage4K, 0).ok());
  EXPECT_EQ(pt.mapped_pages(), 1u);
  ASSERT_TRUE(pt.unmap(0x1000).ok());
  EXPECT_EQ(pt.mapped_pages(), 0u);
  EXPECT_FALSE(pt.translate(0x1000).has_value());
  EXPECT_EQ(pt.unmap(0x1000).error(), Errno::enoent);
}

TEST(PageTable, MapRangeCoversAllPages) {
  PageTable pt;
  ASSERT_TRUE(pt.map_range(0x10000, 0xA0000, 16 * kPage4K, kPage4K, kProtRead).ok());
  for (std::uint64_t off = 0; off < 16 * kPage4K; off += kPage4K) {
    auto t = pt.translate(0x10000 + off);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pa, 0xA0000 + off);
  }
}

TEST(PageTable, MapRangeRollsBackOnConflict) {
  PageTable pt;
  // Pre-existing page in the middle of the range.
  ASSERT_TRUE(pt.map(0x13000, 0xF000, kPage4K, 0).ok());
  EXPECT_FALSE(pt.map_range(0x10000, 0xA0000, 8 * kPage4K, kPage4K, 0).ok());
  // Pages before the conflict must have been unwound.
  EXPECT_FALSE(pt.translate(0x10000).has_value());
  EXPECT_FALSE(pt.translate(0x12000).has_value());
  EXPECT_TRUE(pt.translate(0x13000).has_value());
  EXPECT_EQ(pt.mapped_pages(), 1u);
  EXPECT_EQ(pt.table_count(), 4u) << "the root and the pre-existing page's three tables";
}

TEST(PageTable, UnmapRangeMixedPageSizes) {
  PageTable pt;
  ASSERT_TRUE(pt.map(0x4000'0000, 0x2000'0000, kPage2M, 0).ok());
  ASSERT_TRUE(pt.map(0x4020'0000, 0x3000'0000, kPage4K, 0).ok());
  pt.unmap_range(0x4000'0000, kPage2M + kPage4K);
  EXPECT_EQ(pt.mapped_pages(), 0u);
}

TEST(PageTable, ProtRoundTripsAtEveryPageSize) {
  PageTable pt;
  VirtAddr va = 0;
  PhysAddr pa = kPage1G;
  for (const std::uint64_t page : {kPage4K, kPage2M, kPage1G}) {
    for (std::uint32_t prot = 0; prot <= (kProtRead | kProtWrite | kProtExec); ++prot) {
      va += kPage1G;
      pa += kPage1G;
      ASSERT_TRUE(pt.map(va, pa, page, prot).ok()) << page << " " << prot;
      auto t = pt.translate(va + page - 1);
      ASSERT_TRUE(t.has_value());
      EXPECT_EQ(t->prot, prot) << page;
      EXPECT_EQ(t->pa, pa + page - 1) << page;
      EXPECT_EQ(t->page, page);
    }
    // The entry has room for the three Prot bits only.
    EXPECT_EQ(pt.map(va + kPage1G, pa, page, kProtExec << 1).error(), Errno::einval);
    EXPECT_EQ(pt.map(va + kPage1G, pa, page, 1u << 31).error(), Errno::einval);
  }
  EXPECT_EQ(pt.mapped_pages(), 24u);
}

TEST(PageTable, UnmapFreesEmptiedTables) {
  PageTable pt;
  EXPECT_EQ(pt.table_count(), 1u) << "the root";
  ASSERT_TRUE(pt.map(0x4000'1000, 0xA000, kPage4K, kProtRead).ok());
  EXPECT_EQ(pt.table_count(), 4u);
  ASSERT_TRUE(pt.unmap(0x4000'1000).ok());
  EXPECT_EQ(pt.table_count(), 1u);
  // With the page table beneath it gone, the slot takes a large page.
  ASSERT_TRUE(pt.map(0x4000'0000, 0x2000'0000, kPage2M, kProtRead).ok());
  EXPECT_EQ(pt.table_count(), 3u);
  // A table keeps living while any entry in it does.
  ASSERT_TRUE(pt.map(0x4020'0000, 0xB000, kPage4K, kProtRead).ok());
  EXPECT_EQ(pt.table_count(), 4u);
  ASSERT_TRUE(pt.unmap(0x4000'0000).ok());
  EXPECT_EQ(pt.table_count(), 4u);
  pt.unmap_range(0x4020'0000, kPage4K);
  EXPECT_EQ(pt.table_count(), 1u);
  EXPECT_EQ(pt.mapped_pages(), 0u);
}

TEST(PageTable, ScratchChurnLeavesOnlyTheRoot) {
  // The QBOX pattern: a fresh 8 MiB range of 4 KiB pages, mapped and
  // unmapped at a growing address each iteration.
  PageTable pt;
  constexpr std::uint64_t kScratch = 8ull << 20;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const VirtAddr va = 0x2AAA'0000'0000ull + i * (kScratch + kPage4K);
    ASSERT_TRUE(pt.map_range(va, 0x10'0000'0000ull, kScratch, kPage4K, kProtRead).ok());
    ASSERT_GT(pt.table_count(), 1u);
    pt.unmap_range(va, kScratch);
    ASSERT_EQ(pt.table_count(), 1u) << "iteration " << i;
  }
  EXPECT_EQ(pt.mapped_pages(), 0u);
}

TEST(PageTable, HighCanonicalAddresses) {
  // Kernel-space addresses (top of the 48-bit hole) must work: the direct
  // map and kernel images live there.
  PageTable pt;
  const VirtAddr va = 0xFFFF'8800'0000'0000ull & ((1ull << 48) - 1);
  ASSERT_TRUE(pt.map(va, 0x1000, kPage4K, kProtRead).ok());
  auto t = pt.translate(va + 4);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pa, 0x1004u);
}

TEST(PageTable, ManyMappingsStressAndTranslate) {
  PageTable pt;
  constexpr int kPages = 4096;
  for (int i = 0; i < kPages; ++i)
    ASSERT_TRUE(pt.map(0x100000 + static_cast<VirtAddr>(i) * kPage4K,
                       0x10'0000'0000ull + static_cast<PhysAddr>(i) * kPage4K, kPage4K, 0)
                    .ok());
  EXPECT_EQ(pt.mapped_pages(), static_cast<std::uint64_t>(kPages));
  for (int i = 0; i < kPages; i += 97) {
    auto t = pt.translate(0x100000 + static_cast<VirtAddr>(i) * kPage4K + 7);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pa, 0x10'0000'0000ull + static_cast<PhysAddr>(i) * kPage4K + 7);
  }
}

}  // namespace
}  // namespace pd::mem
