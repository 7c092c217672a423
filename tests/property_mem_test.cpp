// Property tests over the memory subsystem composites: random
// mmap/munmap/gup sequences must conserve physical memory, keep pin
// counts exact against a model, and keep translations consistent, under
// both backing policies; FlatMap, used as the gup pin table, must match a
// hash-map oracle; the kernel heap must match a reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/flat_map.hpp"
#include "src/common/rng.hpp"
#include "src/common/units.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/kheap.hpp"

namespace pd::mem {
namespace {

struct AsCase {
  BackingPolicy policy;
  std::uint64_t seed;
};

class AddressSpaceProperty : public testing::TestWithParam<AsCase> {};

TEST_P(AddressSpaceProperty, RandomMmapChurnConservesEverything) {
  const AsCase c = GetParam();
  const bool lwk = c.policy == BackingPolicy::lwk_contig;
  PhysMap phys = PhysMap::knl(128_MiB, 256_MiB, 2);
  auto free_total = [&phys] {
    return phys.free_bytes(MemKind::mcdram) + phys.free_bytes(MemKind::ddr);
  };
  const std::uint64_t initial = free_total();
  Rng rng(c.seed);

  {
    AddressSpace as(phys, c.policy, MemKind::mcdram, 0x30'0000'0000ull, c.seed ^ 0xF00D);
    struct Region {
      VirtAddr va;
      std::uint64_t len;
      std::vector<PhysAddr> frames;  // 4 KiB frames, in page order
    };
    std::vector<Region> live;
    std::vector<std::pair<VirtAddr, PinnedPages>> pinned;  // (region va, pins)
    // The pin model: per frame, its gup pins plus one while a live pinned
    // (LWK) VMA holds it; a frame is pinned exactly while it has an entry.
    std::unordered_map<PhysAddr, int> model;
    auto add = [&model](PhysAddr frame, int delta) {
      if ((model[frame] += delta) == 0) model.erase(frame);
    };
    auto expect_pinned = [&](PhysAddr frame) {
      return model.count(frame) > 0;
    };
    std::vector<PhysAddr> last_unmapped;  // frames of the latest munmap
    // Every live page's frame, and the bytes the live regions span: memory
    // taken from the PhysMap is exactly what the live regions hold, and no
    // frame backs two live pages.
    std::unordered_set<PhysAddr> live_frames;
    std::uint64_t live_bytes = 0;

    for (int step = 0; step < 600; ++step) {
      const int op = static_cast<int>(rng.next_below(10));
      if (op < 4) {  // mmap
        const std::uint64_t len = (1 + rng.next_below(512)) * kPage4K;
        auto va = as.mmap_anonymous(len, kProtRead | kProtWrite);
        if (va.ok()) {
          Region r{*va, len, {}};
          for (std::uint64_t off = 0; off < len; off += kPage4K) {
            auto t = as.translate(*va + off);
            ASSERT_TRUE(t.has_value());
            r.frames.push_back(page_floor(t->pa, kPage4K));
          }
          for (const PhysAddr frame : r.frames)
            ASSERT_TRUE(live_frames.insert(frame).second) << "frame backs two live pages";
          live_bytes += len;
          if (lwk)
            for (const PhysAddr frame : r.frames) add(frame, +1);
          live.push_back(std::move(r));
        }
      } else if (op < 7 && !live.empty()) {  // munmap a random region
        const std::size_t pick = rng.next_below(live.size());
        // Unmapping under an outstanding gup pin is the app's bug, and
        // mostly skipped; one time in four the arm does it anyway, and the
        // pinned frames must stay counted until they are put.
        std::vector<const PinnedPages*> held;
        for (const auto& [region, pages] : pinned)
          if (region == live[pick].va) held.push_back(&pages);
        if (held.empty() || rng.next_below(4) == 0) {
          ASSERT_TRUE(as.munmap(live[pick].va, live[pick].len).ok());
          for (const PhysAddr frame : live[pick].frames) live_frames.erase(frame);
          live_bytes -= live[pick].len;
          if (lwk)
            for (const PhysAddr frame : live[pick].frames) add(frame, -1);
          for (const PinnedPages* pages : held)
            for (const PhysAddr frame : pages->frames)
              ASSERT_TRUE(as.is_pinned(frame)) << "gup pin must outlive munmap";
          last_unmapped = std::move(live[pick].frames);
          live[pick] = std::move(live.back());
          live.pop_back();
        }
      } else if (op < 9 && !live.empty()) {  // gup a sub-range
        const std::size_t pick = rng.next_below(live.size());
        const Region& r = live[pick];
        const std::uint64_t off = rng.next_below(r.len / kPage4K) * kPage4K;
        const std::uint64_t len = std::min<std::uint64_t>(r.len - off, 8 * kPage4K);
        auto pages = as.get_user_pages(r.va + off, len);
        ASSERT_TRUE(pages.ok());
        ASSERT_EQ(pages->frames.size(), len / kPage4K);
        for (std::size_t i = 0; i < pages->frames.size(); ++i) {
          ASSERT_EQ(pages->frames[i], r.frames[off / kPage4K + i]);
          add(pages->frames[i], +1);
        }
        pinned.emplace_back(r.va, std::move(*pages));
      } else if (!pinned.empty()) {  // release a pin set
        const std::size_t pick = rng.next_below(pinned.size());
        as.put_user_pages(pinned[pick].second);
        for (const PhysAddr frame : pinned[pick].second.frames) add(frame, -1);
        pinned[pick] = std::move(pinned.back());
        pinned.pop_back();
      }

      // Invariants after every step.
      ASSERT_EQ(initial - free_total(), live_bytes) << "step " << step;
      for (const auto& r : live) {
        auto t = as.translate(r.va + rng.next_below(r.len));
        ASSERT_TRUE(t.has_value()) << "live region must stay mapped";
      }
      ASSERT_EQ(as.pinned_frame_count(), model.size()) << "step " << step;
      if (!live.empty()) {
        const Region& r = live[rng.next_below(live.size())];
        const PhysAddr frame = r.frames[rng.next_below(r.frames.size())];
        ASSERT_EQ(as.is_pinned(frame), expect_pinned(frame)) << "step " << step;
      }
      if (!pinned.empty()) {
        const auto& frames = pinned[rng.next_below(pinned.size())].second.frames;
        ASSERT_TRUE(as.is_pinned(frames[rng.next_below(frames.size())])) << "step " << step;
      }
      if (!last_unmapped.empty()) {
        const PhysAddr frame = last_unmapped[rng.next_below(last_unmapped.size())];
        ASSERT_EQ(as.is_pinned(frame), expect_pinned(frame)) << "step " << step;
      }
    }
    for (auto& [region, pages] : pinned) {
      as.put_user_pages(pages);
      for (const PhysAddr frame : pages.frames) add(frame, -1);
    }
    EXPECT_EQ(as.pinned_frame_count(), model.size());
    // Destructor releases everything still mapped.
  }
  EXPECT_EQ(free_total(), initial) << "physical memory leaked or double-freed";
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AddressSpaceProperty,
    testing::Values(AsCase{BackingPolicy::linux_4k, 11}, AsCase{BackingPolicy::linux_4k, 22},
                    AsCase{BackingPolicy::lwk_contig, 33},
                    AsCase{BackingPolicy::lwk_contig, 44}));

// FlatMap as AddressSpace uses it for gup pins (frame number -> pin count),
// against an unordered_map oracle.
class PinCountOracle {
 public:
  void pin(std::uint64_t frame) {
    ++table[frame];
    ++oracle[frame];
  }
  void unpin(std::uint64_t frame) {
    auto it = oracle.find(frame);
    std::uint32_t* pins = table.find(frame);
    ASSERT_EQ(pins != nullptr, it != oracle.end()) << "frame " << frame;
    if (pins == nullptr) return;
    if (--*pins == 0) {
      ASSERT_TRUE(table.erase(frame));
    }
    if (--it->second == 0) oracle.erase(it);
  }
  void check() const {
    ASSERT_EQ(table.size(), oracle.size());
    for (const auto& [frame, n] : oracle) {
      const std::uint32_t* pins = table.find(frame);
      ASSERT_TRUE(pins != nullptr && *pins == n) << "frame " << frame;
    }
    std::size_t visited = 0;
    table.for_each([&](std::uint64_t frame, std::uint32_t n) {
      ++visited;
      auto it = oracle.find(frame);
      ASSERT_TRUE(it != oracle.end() && it->second == n) << "frame " << frame;
    });
    ASSERT_EQ(visited, oracle.size());
  }
  FlatMap<std::uint32_t> table;
  std::unordered_map<std::uint64_t, std::uint32_t> oracle;
};

TEST(FlatMapPins, CollidingRunWrapsAndShiftsBackOnDelete) {
  PinCountOracle t;
  t.pin(1);
  const std::size_t cap = t.table.capacity();
  // Keys homed at the last slot wrap their run onto the front of the
  // table, where keys homed at slot 0 and 1 then collide with them.
  std::vector<std::uint64_t> keys;
  for (const std::size_t home : {cap - 1, std::size_t{0}, std::size_t{1}}) {
    std::size_t found = 0;
    for (std::uint64_t f = 2; found < cap / 6; ++f) {
      if (t.table.home(f) != home || std::count(keys.begin(), keys.end(), f) > 0) continue;
      keys.push_back(f);
      ++found;
    }
  }
  ASSERT_LE(keys.size() + 1, cap * 3 / 4) << "phase must not grow the table";
  for (const std::uint64_t f : keys) t.pin(f);
  t.pin(keys[1]);  // a second pin: one unpin must leave it in place
  ASSERT_EQ(t.table.capacity(), cap);
  ASSERT_NO_FATAL_FAILURE(t.check());
  EXPECT_EQ(t.table.find(0), nullptr);
  EXPECT_FALSE(t.table.erase(0)) << "erase of an absent key";
  // Delete the run's head first (every later entry must shift back across
  // the wrap), then the rest in a scrambled order.
  Rng rng(5);
  std::vector<std::uint64_t> order = keys;
  for (std::size_t i = order.size(); i > 2; --i)
    std::swap(order[i - 1], order[1 + rng.next_below(i - 1)]);
  for (const std::uint64_t f : order) {
    t.unpin(f);
    ASSERT_NO_FATAL_FAILURE(t.check());
  }
  t.unpin(keys[1]);
  t.unpin(1);
  ASSERT_NO_FATAL_FAILURE(t.check());
  EXPECT_EQ(t.table.size(), 0u);
}

TEST(FlatMapPins, MatchesOracleUnderRandomChurnAndGrowth) {
  PinCountOracle t;
  Rng rng(17);
  std::vector<std::uint64_t> held;  // one element per pin taken
  // Frames clustered like one process's buffers, with a second cluster far
  // away; the pinned population swells and drains so the table grows,
  // empties and refills at its grown size.
  auto frame = [&rng] {
    const std::uint64_t base = rng.next_below(4) == 0 ? 0x4000'0000ull : 0x10'0000ull;
    return base + rng.next_below(3000);
  };
  std::size_t max_capacity = 0;
  for (int round = 0; round < 6; ++round) {
    const std::size_t peak = 200 + rng.next_below(2000);
    while (held.size() < peak) {
      if (rng.next_below(4) == 0 && !held.empty()) {
        const std::size_t pick = rng.next_below(held.size());
        t.unpin(held[pick]);
        held[pick] = held.back();
        held.pop_back();
      } else {
        held.push_back(frame());
        t.pin(held.back());
      }
      if (held.size() % 97 == 0) {
        ASSERT_NO_FATAL_FAILURE(t.check());
      }
    }
    ASSERT_NO_FATAL_FAILURE(t.check());
    max_capacity = std::max(max_capacity, t.table.capacity());
    EXPECT_LE(t.table.size() * 4, t.table.capacity() * 3) << "load stays at most 3/4";
    while (!held.empty()) {
      const std::size_t pick = rng.next_below(held.size());
      t.unpin(held[pick]);
      held[pick] = held.back();
      held.pop_back();
      if (held.size() % 89 == 0) {
        ASSERT_NO_FATAL_FAILURE(t.check());
      }
      t.unpin(frame() + 0x100'0000'0000ull);  // never pinned: must not be found
    }
    ASSERT_NO_FATAL_FAILURE(t.check());
    EXPECT_EQ(t.table.size(), 0u);
  }
  EXPECT_GE(max_capacity, 1024u) << "the churn must have grown the table";
}

class KheapProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(KheapProperty, MatchesReferenceUnderRandomTraffic) {
  Rng rng(GetParam() * 7);
  KernelHeap heap({8, 9, 10, 11}, ForeignFreePolicy::remote_queue);
  std::map<PhysAddr, std::uint64_t> reference;  // addr → size
  std::uint64_t parked = 0;                     // on remote queues

  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.next_below(10));
    if (op < 5) {  // alloc on a random owned cpu
      const std::uint64_t size = 16 + rng.next_below(512);
      auto a = heap.kmalloc(size, 8 + static_cast<int>(rng.next_below(4)));
      ASSERT_TRUE(a.ok());
      ASSERT_EQ(reference.count(*a), 0u);
      reference[*a] = size;
      // Memory must be zeroed and writable.
      auto bytes = heap.data(*a);
      ASSERT_EQ(bytes.size(), size);
      ASSERT_EQ(bytes[0], 0);
      bytes[0] = 0xAB;
    } else if (op < 8 && !reference.empty()) {  // local free
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.next_below(reference.size())));
      ASSERT_TRUE(heap.kfree(it->first, 9).ok());
      reference.erase(it);
    } else if (!reference.empty()) {  // foreign (IRQ-side) free
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng.next_below(reference.size())));
      ASSERT_TRUE(heap.kfree(it->first, /*linux cpu=*/0).ok());
      reference.erase(it);
      ++parked;
      if (rng.next_double() < 0.3) {  // occasional scheduler-tick drain
        for (int cpu : {8, 9, 10, 11}) heap.drain_remote_frees(cpu);
        parked = 0;
      }
    }
    ASSERT_EQ(heap.live_blocks(), reference.size() + parked);
  }
  for (int cpu : {8, 9, 10, 11}) heap.drain_remote_frees(cpu);
  EXPECT_EQ(heap.live_blocks(), reference.size());
  EXPECT_EQ(heap.stats().rejected_frees, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KheapProperty, testing::Values(3, 7, 31));

}  // namespace
}  // namespace pd::mem
