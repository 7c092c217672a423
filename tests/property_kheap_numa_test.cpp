// NUMA drain-batching oracle property (paper §3.3 + SNC-4 placement).
//
// The kheap places cold allocations in the caller's near partition and
// walks the remote-free queue one batch per source socket. A seeded op
// script drives one multi-socket heap while the harness keeps its own
// model of the script: which blocks are live, which were foreign-freed
// onto which owner's queue (and from which socket), and which addresses
// each owner's magazines should hold. Every drain must reclaim exactly the
// blocks the script queued for that owner, and `cross_socket_drains` must
// grow by the number of distinct remote source sockets among them — one
// event per socket batch, never one per block. The heap-wide drain must
// do the same for every owner at once. A slab-class kmalloc must
// reuse a parked block exactly when the model says one is parked, and hand
// back one of the model's addresses when it does. Ledgers and each live
// block's byte pattern are checked against the model too.
//
// Determinism: fixed default seed, overridable with PD_PROPERTY_SEED; a
// failure prints the seed. Run with `ctest -L property` (also labelled
// `numa`).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/mem/kheap.hpp"
#include "src/mem/numa_topology.hpp"

namespace pd::mem {
namespace {

// blocked(16, 4): CPUs {0..3}→socket 0, {4..7}→1, {8..11}→2, {12..15}→3.
// Owners sit on sockets 1–3 (never 0); foreign frees come from the Linux
// service CPUs on socket 0 *and* from unowned CPUs on the owner sockets, so
// drains see both remote and same-socket sources.
constexpr int kTotalCpus = 16;
constexpr int kSockets = 4;
constexpr int kOwnerCpus[] = {4, 5, 8, 9, 12, 13};
constexpr int kForeignCpus[] = {0, 1, 2, 3, 6, 10, 14};
constexpr int kOps = 12'000;

std::uint64_t harness_seed() {
  if (const char* env = std::getenv("PD_PROPERTY_SEED"); env != nullptr && *env != '\0')
    return std::strtoull(env, nullptr, 0);
  return 0x5C0CE75ull;
}

std::uint8_t pattern_for(std::size_t id, std::uint64_t size) {
  return static_cast<std::uint8_t>(id * 17 ^ size ^ 0xA7);
}

/// Magazine size class of a request, or kSizeClasses.size() when oversized
/// (such blocks go back to the host on free and are never parked).
std::size_t size_class(std::uint64_t size) {
  std::size_t cls = 0;
  while (cls < KernelHeap::kSizeClasses.size() && size > KernelHeap::kSizeClasses[cls]) ++cls;
  return cls;
}

struct Block {
  PhysAddr addr = 0;
  std::uint64_t size = 0;
  int owner_cpu = -1;
  int source_socket = -1;  // socket of the foreign CPU that freed it
  std::size_t id = 0;      // pattern key
};

class DrainOracleHarness {
 public:
  explicit DrainOracleHarness(std::uint64_t seed)
      : seed_(seed),
        rng_(seed),
        topo_(NumaTopology::blocked(kTotalCpus, kSockets)),
        heap_(owners(), ForeignFreePolicy::remote_queue, topo_, PartitionBudget{}) {}

  void run(int ops) {
    for (int op = 0; op < ops && !testing::Test::HasFatalFailure(); ++op) {
      const std::uint64_t dice = rng_.next_below(100);
      if (dice < 38) {
        do_alloc();
      } else if (dice < 58) {
        do_free(/*foreign=*/true);
      } else if (dice < 70) {
        do_free(/*foreign=*/false);
      } else if (dice < 75) {
        do_double_free();
      } else if (dice < 85) {
        do_drain(owner());
      } else if (dice < 88) {
        do_drain_all();
      } else {
        check_ledgers();
      }
    }
    if (testing::Test::HasFatalFailure()) return;
    // Settle: free everything locally, drain every owner, final audit.
    while (!live_.empty()) do_free(/*foreign=*/false);
    do_drain_all();
    check_ledgers();
    finish();
  }

 private:
  static std::vector<int> owners() { return {std::begin(kOwnerCpus), std::end(kOwnerCpus)}; }
  int owner() { return kOwnerCpus[rng_.next_below(std::size(kOwnerCpus))]; }
  int foreign() { return kForeignCpus[rng_.next_below(std::size(kForeignCpus))]; }

  std::uint64_t random_size() {
    const std::uint64_t dice = rng_.next_below(100);
    if (dice < 60) return 192;  // SDMA completion metadata
    if (dice < 90) return 1 + rng_.next_below(4096);
    return 4097 + rng_.next_below(8ull * 1024);  // oversized → host path
  }

  /// The model's parked addresses on `cpu`'s magazine for `size`'s class.
  std::set<PhysAddr>& parked(int cpu, std::uint64_t size) {
    return parked_[{cpu, size_class(size)}];
  }

  /// Model side of a block leaving the live ledger (local free or drain).
  void retire(const Block& b) {
    bytes_live_ -= b.size;
    if (size_class(b.size) < KernelHeap::kSizeClasses.size()) {
      parked(b.owner_cpu, b.size).insert(b.addr);
      ++recycles_;
    }
  }

  void check_bytes(const Block& b) {
    auto span = heap_.data(b.addr);
    ASSERT_EQ(span.size(), b.size) << reproducer();
    const std::uint8_t p = pattern_for(b.id, b.size);
    for (std::size_t i = 0; i < span.size(); ++i)
      ASSERT_EQ(span[i], p) << "block " << b.id << " byte " << i << " stomped" << reproducer();
  }

  void do_alloc() {
    Block b;
    b.owner_cpu = owner();
    b.size = random_size();
    b.id = next_id_++;
    const KernelHeap::Stats before = heap_.stats();
    auto addr = heap_.kmalloc(b.size, b.owner_cpu);
    ASSERT_TRUE(addr.ok()) << reproducer();
    b.addr = *addr;
    std::set<PhysAddr>& magazine = parked(b.owner_cpu, b.size);
    if (magazine.empty()) {
      ASSERT_EQ(heap_.stats().host_allocs, before.host_allocs + 1) << reproducer();
    } else {
      ASSERT_EQ(heap_.stats().slab_reuses, before.slab_reuses + 1) << reproducer();
      ASSERT_EQ(magazine.erase(b.addr), 1u)
          << "reused a block the script never parked on this magazine" << reproducer();
    }
    ++allocs_;
    bytes_live_ += b.size;
    auto span = heap_.data(b.addr);
    ASSERT_EQ(span.size(), b.size) << reproducer();
    for (auto& byte : span) byte = pattern_for(b.id, b.size);
    live_.push_back(b);
  }

  void do_free(bool is_foreign) {
    if (live_.empty()) return;
    const std::size_t pick = rng_.next_below(live_.size());
    Block b = live_[pick];
    live_[pick] = live_.back();
    live_.pop_back();
    check_bytes(b);  // integrity holds right up to the free
    const int cpu = is_foreign ? foreign() : b.owner_cpu;
    ASSERT_TRUE(heap_.kfree(b.addr, cpu).ok()) << reproducer();
    if (is_foreign) {
      b.source_socket = topo_.socket_of(cpu);
      queued_.push_back(b);
      ++remote_frees_;
    } else {
      retire(b);
      ++local_frees_;
    }
  }

  // A free of a queued block is a caught double free, and its bytes stay
  // hidden until the owner drains it.
  void do_double_free() {
    if (queued_.empty()) return;
    const Block& b = queued_[rng_.next_below(queued_.size())];
    const int cpu = rng_.next_below(2) == 0 ? foreign() : b.owner_cpu;
    ASSERT_EQ(heap_.kfree(b.addr, cpu).error(), Errno::einval) << reproducer();
    ASSERT_TRUE(heap_.data(b.addr).empty()) << reproducer();
    ++double_frees_;
  }

  /// The model's side of draining `cpu`, taken before the heap drains.
  struct DrainPlan {
    int cpu = -1;
    std::vector<Block> blocks;        // the script queued these for `cpu`
    std::size_t remote_sockets = 0;   // distinct remote source sockets among them
    std::size_t slab_blocks = 0;      // those that park on a magazine
    std::size_t depth_before = 0;     // the heap's magazine depth of `cpu`
  };

  /// Moves `cpu`'s queued blocks out of the model's queue into a plan.
  DrainPlan plan_drain(int cpu) {
    DrainPlan plan;
    plan.cpu = cpu;
    for (std::size_t i = 0; i < queued_.size();) {
      if (queued_[i].owner_cpu == cpu) {
        plan.blocks.push_back(queued_[i]);
        queued_[i] = queued_.back();
        queued_.pop_back();
      } else {
        ++i;
      }
    }
    std::set<int> remote_sockets;
    for (const Block& b : plan.blocks) {
      if (b.source_socket != topo_.socket_of(cpu)) {
        remote_sockets.insert(b.source_socket);
        ++remote_blocks_drained_;
      }
      if (size_class(b.size) < KernelHeap::kSizeClasses.size()) ++plan.slab_blocks;
    }
    plan.remote_sockets = remote_sockets.size();
    plan.depth_before = heap_.magazine_depth(cpu);
    return plan;
  }

  /// After the heap drained: the plan's blocks parked, its queue is empty.
  void check_drained(const DrainPlan& plan) {
    ASSERT_EQ(heap_.magazine_depth(plan.cpu) - plan.depth_before, plan.slab_blocks)
        << reproducer();
    ASSERT_EQ(heap_.remote_queue_depth(plan.cpu), 0u) << reproducer();
    for (const Block& b : plan.blocks) retire(b);
  }

  void do_drain(int cpu) {
    const DrainPlan plan = plan_drain(cpu);
    ASSERT_EQ(heap_.remote_queue_depth(cpu), plan.blocks.size()) << reproducer();
    const KernelHeap::Stats before = heap_.stats();
    ASSERT_EQ(heap_.drain_remote_frees(cpu), plan.blocks.size()) << reproducer();
    const KernelHeap::Stats& after = heap_.stats();
    ASSERT_EQ(after.cross_socket_drains - before.cross_socket_drains, plan.remote_sockets)
        << "one cross-socket event per remote source socket, not per block" << reproducer();
    check_drained(plan);
    ASSERT_EQ(after.bytes_live, bytes_live_) << reproducer();
  }

  // The heap-wide drain reclaims exactly every owner's queued blocks and
  // pays one cross-socket event per (owner, remote source socket).
  void do_drain_all() {
    std::vector<DrainPlan> plans;
    std::size_t blocks = 0;
    std::size_t cross = 0;
    for (int cpu : kOwnerCpus) {
      plans.push_back(plan_drain(cpu));
      ASSERT_EQ(heap_.remote_queue_depth(cpu), plans.back().blocks.size()) << reproducer();
      blocks += plans.back().blocks.size();
      cross += plans.back().remote_sockets;
    }
    const KernelHeap::Stats before = heap_.stats();
    ASSERT_EQ(heap_.drain_remote_frees(), blocks) << reproducer();
    const KernelHeap::Stats& after = heap_.stats();
    ASSERT_EQ(after.cross_socket_drains - before.cross_socket_drains, cross) << reproducer();
    for (const DrainPlan& plan : plans) check_drained(plan);
    ASSERT_EQ(after.bytes_live, bytes_live_) << reproducer();
  }

  void check_ledgers() {
    const KernelHeap::Stats& s = heap_.stats();
    ASSERT_EQ(s.allocs, allocs_) << reproducer();
    ASSERT_EQ(s.local_frees, local_frees_) << reproducer();
    ASSERT_EQ(s.remote_frees, remote_frees_) << reproducer();
    ASSERT_EQ(s.double_frees, double_frees_) << reproducer();
    ASSERT_EQ(s.bytes_live, bytes_live_) << reproducer();
    ASSERT_EQ(s.slab_reuses + s.host_allocs, allocs_) << reproducer();
    ASSERT_EQ(s.slab_recycles, recycles_) << reproducer();
    ASSERT_EQ(heap_.live_blocks(), live_.size() + queued_.size()) << reproducer();
  }

  void finish() {
    ASSERT_EQ(heap_.live_blocks(), 0u) << reproducer();
    EXPECT_EQ(heap_.owned_cpus(), owners()) << reproducer();
    const KernelHeap::Stats& s = heap_.stats();
    EXPECT_GT(s.remote_frees, 500u) << "remote path barely exercised" << reproducer();
    // With unbounded budgets every cold allocation lands in its caller's
    // near partition.
    EXPECT_EQ(s.near_allocs, s.host_allocs) << reproducer();
    EXPECT_EQ(s.far_allocs, 0u) << reproducer();
    EXPECT_EQ(s.partition_exhausted, 0u) << reproducer();
    // Drains carried multi-block batches, so coalescing paid off: fewer
    // cross-socket events than remote-socket blocks reclaimed.
    EXPECT_LT(s.cross_socket_drains, remote_blocks_drained_) << reproducer();
  }

  std::string reproducer() const {
    return "\n  reproduce with PD_PROPERTY_SEED=" + std::to_string(seed_);
  }

  std::uint64_t seed_;
  Rng rng_;
  NumaTopology topo_;
  KernelHeap heap_;
  std::vector<Block> live_;
  std::vector<Block> queued_;  // foreign-freed, awaiting the owner's drain
  std::map<std::pair<int, std::size_t>, std::set<PhysAddr>> parked_;  // (cpu, class)
  std::size_t next_id_ = 0;
  std::uint64_t allocs_ = 0;
  std::uint64_t local_frees_ = 0;
  std::uint64_t remote_frees_ = 0;
  std::uint64_t double_frees_ = 0;
  std::uint64_t recycles_ = 0;
  std::uint64_t bytes_live_ = 0;
  std::uint64_t remote_blocks_drained_ = 0;  // from a socket not the owner's
};

TEST(KheapNumaProperty, DrainMatchesScriptOracle) {
  const std::uint64_t seed = harness_seed();
  std::printf("kheap numa oracle: PD_PROPERTY_SEED=%llu (%d ops)\n",
              static_cast<unsigned long long>(seed), kOps);
  DrainOracleHarness h(seed);
  h.run(kOps);
}

// Breadth: extra fixed seeds keep running even when PD_PROPERTY_SEED pins
// the main harness to a reproducer.
TEST(KheapNumaProperty, FixedSeedsMatchOracle) {
  for (std::uint64_t seed : {std::uint64_t{0xBA7C4ull}, std::uint64_t{7}}) {
    DrainOracleHarness h(splitmix64(seed));
    h.run(4'000);
    if (testing::Test::HasFatalFailure()) return;
  }
}

// Deterministic worked example of the figure of merit: eight completion
// blocks freed from two remote sockets cost the drain two cross-socket
// events (one per source socket), not eight (one per block).
TEST(KheapNumaDrain, DrainCoalescesPerSourceSocket) {
  const NumaTopology topo = NumaTopology::blocked(kTotalCpus, kSockets);
  KernelHeap heap({4}, ForeignFreePolicy::remote_queue, topo, PartitionBudget{});
  std::vector<PhysAddr> blocks;
  for (int i = 0; i < 8; ++i) {
    auto a = heap.kmalloc(192, 4);
    ASSERT_TRUE(a.ok());
    blocks.push_back(*a);
  }
  for (int i = 0; i < 8; ++i) {
    // Alternate source sockets 0 and 2 (CPUs 0 and 10); owner is socket 1.
    ASSERT_TRUE(heap.kfree(blocks[static_cast<std::size_t>(i)], i % 2 == 0 ? 0 : 10).ok());
  }
  EXPECT_EQ(heap.drain_remote_frees(4), 8u);
  EXPECT_EQ(heap.stats().cross_socket_drains, 2u);
}

// Same-socket foreign frees are not cross-socket traffic: CPU 6 shares
// socket 1 with the owner CPU 4.
TEST(KheapNumaDrain, SameSocketForeignFreeIsNotCrossSocket) {
  const NumaTopology topo = NumaTopology::blocked(kTotalCpus, kSockets);
  KernelHeap heap({4}, ForeignFreePolicy::remote_queue, topo, PartitionBudget{});
  auto a = heap.kmalloc(192, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap.kfree(*a, 6).ok());
  EXPECT_EQ(heap.drain_remote_frees(4), 1u);
  EXPECT_EQ(heap.stats().cross_socket_drains, 0u);
}

// The heap-wide drain with nothing queued reclaims and counts nothing, even
// with blocks live and parked on a magazine.
TEST(KheapNumaDrain, DrainAllWithNothingQueuedReturnsZero) {
  const NumaTopology topo = NumaTopology::blocked(kTotalCpus, kSockets);
  KernelHeap heap({4, 8}, ForeignFreePolicy::remote_queue, topo, PartitionBudget{});
  EXPECT_EQ(heap.drain_remote_frees(), 0u);
  auto live = heap.kmalloc(192, 4);
  auto parked = heap.kmalloc(192, 8);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(parked.ok());
  ASSERT_TRUE(heap.kfree(*parked, 8).ok());  // owner free: parked, not queued
  const KernelHeap::Stats before = heap.stats();
  EXPECT_EQ(heap.drain_remote_frees(), 0u);
  EXPECT_EQ(heap.stats().cross_socket_drains, before.cross_socket_drains);
  EXPECT_EQ(heap.stats().bytes_live, before.bytes_live);
  EXPECT_EQ(heap.magazine_depth(8), 1u);
  EXPECT_EQ(heap.live_blocks(), 1u);
}

// Partition capacity model: a starved near budget falls back to the home
// socket's far partition — allocations keep succeeding, the exhaustion is
// counted, and frees return budget bytes.
TEST(KheapNumaPartitions, NearExhaustionFallsBackToFar) {
  const NumaTopology topo = NumaTopology::blocked(8, 2);
  // 8 KiB near budget: exactly one oversized 8 KiB block fits near.
  KernelHeap heap({4, 5, 6, 7}, ForeignFreePolicy::remote_queue, topo,
                  PartitionBudget{8 * 1024, 1ull << 30});
  std::vector<PhysAddr> addrs;
  for (int i = 0; i < 16; ++i) {
    auto a = heap.kmalloc(8 * 1024, 4);  // oversized → every alloc carves
    ASSERT_TRUE(a.ok()) << "far fallback must keep allocation " << i << " served";
    addrs.push_back(*a);
  }
  const KernelHeap::Stats& s = heap.stats();
  EXPECT_EQ(s.near_allocs, 1u);
  EXPECT_EQ(s.far_allocs, 15u);
  EXPECT_EQ(s.partition_exhausted, 15u);
  EXPECT_EQ(heap.near_used(1), 8u * 1024);
  EXPECT_EQ(heap.far_used(1), 15u * 8 * 1024);
  // Oversized blocks go back to the host on free: budgets drain to zero.
  for (PhysAddr a : addrs) ASSERT_TRUE(heap.kfree(a, 4).ok());
  EXPECT_EQ(heap.near_used(1), 0u);
  EXPECT_EQ(heap.far_used(1), 0u);
}

// When the home socket's partitions are both exhausted the carve spills to
// the other sockets' slices before failing with ENOMEM.
TEST(KheapNumaPartitions, ExhaustedHomeSpillsThenFails) {
  const NumaTopology topo = NumaTopology::blocked(8, 2);
  KernelHeap heap({4}, ForeignFreePolicy::remote_queue, topo,
                  PartitionBudget{8 * 1024, 8 * 1024});
  // Four 8 KiB slices exist (near/far × 2 sockets); the fifth carve fails.
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(heap.kmalloc(8 * 1024, 4).ok()) << "slice " << i;
  EXPECT_EQ(heap.kmalloc(8 * 1024, 4).error(), Errno::enomem);
  EXPECT_EQ(heap.stats().near_allocs, 1u);
  EXPECT_EQ(heap.stats().far_allocs, 3u);
}

}  // namespace
}  // namespace pd::mem
