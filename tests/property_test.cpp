// Property-based tests: randomized operation sequences checked against
// reference models / invariants, parameterized over seeds and shapes
// (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/dwarf/leb128.hpp"
#include "src/hw/rcv_array.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/page_table.hpp"
#include "src/mem/phys.hpp"

namespace pd {
namespace {

// --- Buddy allocator: conservation, alignment, no overlap ------------------

class BuddyProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(BuddyProperty, RandomAllocFreeKeepsInvariants) {
  Rng rng(GetParam());
  mem::BuddyAllocator buddy(0x100000, 32_MiB);
  const std::uint64_t capacity = buddy.free_bytes_total();

  struct Live {
    mem::PhysAddr addr;
    std::uint64_t bytes;  // rounded block size
  };
  std::vector<Live> live;
  std::uint64_t live_bytes = 0;

  for (int step = 0; step < 4000; ++step) {
    const bool do_alloc = live.empty() || rng.next_double() < 0.55;
    if (do_alloc) {
      const std::uint64_t req = 1ull << (12 + rng.next_below(8));  // 4K..512K
      auto a = buddy.alloc(req);
      if (!a.ok()) continue;  // pool exhausted is fine
      const std::uint64_t block = 1ull << mem::BuddyAllocator::order_for(req);
      // Natural alignment.
      ASSERT_EQ((*a - 0x100000) % block, 0u);
      // No overlap with any live block.
      for (const auto& l : live) {
        const bool disjoint = *a + block <= l.addr || l.addr + l.bytes <= *a;
        ASSERT_TRUE(disjoint) << "overlapping allocation";
      }
      live.push_back({*a, block});
      live_bytes += block;
    } else {
      const std::size_t pick = rng.next_below(live.size());
      buddy.free_bytes(live[pick].addr, live[pick].bytes);
      live_bytes -= live[pick].bytes;
      live[pick] = live.back();
      live.pop_back();
    }
    // Conservation: free + live == capacity, always.
    ASSERT_EQ(buddy.free_bytes_total() + live_bytes, capacity);
  }
  for (const auto& l : live) buddy.free_bytes(l.addr, l.bytes);
  EXPECT_EQ(buddy.free_bytes_total(), capacity);
  // Full coalescing: the largest block must be allocatable again.
  EXPECT_TRUE(buddy.alloc(16_MiB).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyProperty, testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Page table vs reference map -------------------------------------------

class PageTableProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTableProperty, MatchesReferenceModel) {
  Rng rng(GetParam() * 7919);
  mem::PageTable pt;
  std::map<mem::VirtAddr, std::pair<mem::PhysAddr, std::uint64_t>> reference;  // va → (pa, size)
  // Tables the live mappings need, keyed by (level, index of the span the
  // table covers), with the number of mappings below each: a 4 KiB leaf
  // needs a table at levels 0-2, a 2 MiB leaf at levels 1-2. The root is
  // not counted.
  std::map<std::pair<int, mem::VirtAddr>, int> tables;
  auto table_keys = [](mem::VirtAddr va, std::uint64_t page) {
    std::vector<std::pair<int, mem::VirtAddr>> keys;
    for (int level = page == mem::kPage4K ? 0 : 1; level < 3; ++level)
      keys.emplace_back(level, va >> (12 + 9 * (level + 1)));
    return keys;
  };
  auto add = [&](mem::VirtAddr va, mem::PhysAddr pa, std::uint64_t page) {
    reference[va] = {pa, page};
    for (const auto& key : table_keys(va, page)) ++tables[key];
  };
  auto erase = [&](auto it) {
    for (const auto& key : table_keys(it->first, it->second.second))
      if (--tables[key] == 0) tables.erase(key);
    return reference.erase(it);
  };

  auto covered = [&](mem::VirtAddr va) -> const std::pair<const mem::VirtAddr,
                                                          std::pair<mem::PhysAddr, std::uint64_t>>* {
    auto it = reference.upper_bound(va);
    if (it == reference.begin()) return nullptr;
    --it;
    return va < it->first + it->second.second ? &*it : nullptr;
  };

  for (int step = 0; step < 2000; ++step) {
    const bool large = rng.next_double() < 0.2;
    const std::uint64_t page = large ? mem::kPage2M : mem::kPage4K;
    const mem::VirtAddr va = mem::page_floor(rng.next_below(1ull << 32), page);
    const int op = static_cast<int>(rng.next_below(4));
    if (op < 2) {  // map
      const mem::PhysAddr pa = mem::page_floor(0x40000000ull + rng.next_below(1ull << 30), page);
      const Status s = pt.map(va, pa, page, mem::kProtRead);
      // Reference: mapping must succeed iff no byte of [va, va+page) is covered
      // and no existing page starts inside it.
      bool conflict = covered(va) != nullptr;
      if (!conflict) {
        auto it = reference.lower_bound(va);
        if (it != reference.end() && it->first < va + page) conflict = true;
      }
      ASSERT_EQ(s.ok(), !conflict) << std::hex << va;
      if (s.ok()) add(va, pa, page);
    } else if (op == 2) {  // unmap at a random known or unknown address
      const bool known = !reference.empty() && rng.next_double() < 0.7;
      mem::VirtAddr target = va;
      if (known) {
        auto it = reference.begin();
        std::advance(it, static_cast<long>(rng.next_below(reference.size())));
        target = it->first + rng.next_below(it->second.second);
      }
      const auto* ref = covered(target);
      const Status s = pt.unmap(target);
      ASSERT_EQ(s.ok(), ref != nullptr);
      if (ref != nullptr) erase(reference.find(ref->first));
    } else {  // unmap_range from a random byte, often just below a mapping
      mem::VirtAddr start = va + rng.next_below(page);
      if (!reference.empty() && rng.next_double() < 0.7) {
        auto it = reference.begin();
        std::advance(it, static_cast<long>(rng.next_below(reference.size())));
        start = it->first - std::min<mem::VirtAddr>(it->first, rng.next_below(mem::kPage2M));
      }
      const std::uint64_t len = rng.next_below(8 * mem::kPage2M);
      pt.unmap_range(start, len);
      // Every mapping that meets the range, widened to 4 KiB pages, goes whole.
      const mem::VirtAddr lo = mem::page_floor(start, mem::kPage4K);
      const mem::VirtAddr hi = mem::page_ceil(start + len, mem::kPage4K);
      for (auto it = reference.begin(); it != reference.end();)
        it = it->first < hi && lo < it->first + it->second.second ? erase(it) : std::next(it);
    }
    ASSERT_EQ(pt.mapped_pages(), reference.size());
    ASSERT_EQ(pt.table_count(), tables.size() + 1) << "step " << step;
  }

  // Translation agrees everywhere we know about.
  for (const auto& [va, entry] : reference) {
    const std::uint64_t probe = rng.next_below(entry.second);
    auto t = pt.translate(va + probe);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pa, entry.first + probe);
    EXPECT_EQ(t->page, entry.second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTableProperty, testing::Values(1, 2, 3, 4, 5, 6));

// --- physical_extents: exact coverage under any policy/size/cap ------------

struct ExtentCase {
  mem::BackingPolicy policy;
  std::uint64_t bytes;
  std::uint64_t cap;
};

class ExtentsProperty : public testing::TestWithParam<ExtentCase> {};

TEST_P(ExtentsProperty, ExtentsExactlyTileTheRange) {
  const ExtentCase c = GetParam();
  mem::PhysMap phys = mem::PhysMap::knl(128_MiB, 256_MiB, 2);
  mem::AddressSpace as(phys, c.policy, mem::MemKind::mcdram, 0x10'0000'0000ull, 99);
  auto va = as.mmap_anonymous(c.bytes, mem::kProtRead);
  ASSERT_TRUE(va.ok());

  auto extents = as.physical_extents(*va, c.bytes, c.cap);
  ASSERT_TRUE(extents.ok());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < extents->size(); ++i) {
    const auto& e = (*extents)[i];
    ASSERT_GT(e.len, 0u);
    if (c.cap != 0) {
      ASSERT_LE(e.len, c.cap);
    }
    total += e.len;
    // Each extent's bytes must translate to exactly those physical bytes.
    const std::uint64_t off_in_range = total - e.len;
    auto t = as.translate(*va + off_in_range);
    ASSERT_TRUE(t.has_value());
    ASSERT_EQ(t->pa, e.pa);
  }
  EXPECT_EQ(total, c.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    PolicySizeCap, ExtentsProperty,
    testing::Values(ExtentCase{mem::BackingPolicy::lwk_contig, 64_KiB, 10240},
                    ExtentCase{mem::BackingPolicy::lwk_contig, 1_MiB, 10240},
                    ExtentCase{mem::BackingPolicy::lwk_contig, 3_MiB, 0},
                    ExtentCase{mem::BackingPolicy::lwk_contig, 5000, 4096},
                    ExtentCase{mem::BackingPolicy::linux_4k, 64_KiB, 10240},
                    ExtentCase{mem::BackingPolicy::linux_4k, 1_MiB, 10240},
                    ExtentCase{mem::BackingPolicy::linux_4k, 256_KiB, 0},
                    ExtentCase{mem::BackingPolicy::linux_4k, 12345, 8192}));

// --- LEB128 roundtrip fuzz ---------------------------------------------------

class LebProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(LebProperty, RandomRoundtrips) {
  Rng rng(GetParam() * 31337);
  for (int i = 0; i < 5000; ++i) {
    // Bias toward interesting magnitudes.
    const int shift = static_cast<int>(rng.next_below(64));
    const std::uint64_t u = rng.next_u64() >> shift;
    std::vector<std::uint8_t> buf;
    dwarf::write_uleb128(buf, u);
    dwarf::ByteCursor cur(buf.data(), buf.size());
    auto r = cur.read_uleb128();
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(*r, u);

    const std::int64_t s = static_cast<std::int64_t>(rng.next_u64()) >> shift;
    buf.clear();
    dwarf::write_sleb128(buf, s);
    dwarf::ByteCursor cur2(buf.data(), buf.size());
    auto r2 = cur2.read_sleb128();
    ASSERT_TRUE(r2.ok());
    ASSERT_EQ(*r2, s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LebProperty, testing::Values(1, 2, 3, 4));

// --- RcvArray vs reference ---------------------------------------------------

class RcvArrayProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RcvArrayProperty, MatchesReferenceAccounting) {
  Rng rng(GetParam() * 104729);
  hw::RcvArray arr(64);
  std::map<std::uint32_t, int> reference;  // tid → owner

  for (int step = 0; step < 3000; ++step) {
    const int ctxt = static_cast<int>(rng.next_below(4));
    if (rng.next_double() < 0.5) {
      auto tid = arr.program(ctxt, 0x1000, 4096);
      if (reference.size() == 64) {
        ASSERT_FALSE(tid.ok());
      } else {
        ASSERT_TRUE(tid.ok());
        ASSERT_EQ(reference.count(*tid), 0u);
        reference[*tid] = ctxt;
      }
    } else if (!reference.empty()) {
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.next_below(reference.size())));
      const bool right_owner = rng.next_double() < 0.8;
      const int who = right_owner ? it->second : (it->second + 1) % 4;
      const Status s = arr.unprogram(who, it->first);
      ASSERT_EQ(s.ok(), who == it->second);
      if (s.ok()) reference.erase(it);
    }
    ASSERT_EQ(arr.in_use(), reference.size());
  }
  // unprogram_all per context drains exactly that context's entries.
  for (int ctxt = 0; ctxt < 4; ++ctxt) {
    std::size_t expected = 0;
    for (const auto& [tid, owner] : reference)
      if (owner == ctxt) ++expected;
    EXPECT_EQ(arr.unprogram_all(ctxt), expected);
  }
  EXPECT_EQ(arr.in_use(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcvArrayProperty, testing::Values(7, 11, 13));

}  // namespace
}  // namespace pd
