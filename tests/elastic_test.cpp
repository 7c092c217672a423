// Elastic CPU repartitioning (§8.7) unit coverage: the Resource
// grow/shrink/debt mechanics, kheap CPU adoption/release with block
// re-homing, the elastic config validation rules, the live
// IhkPartition::adopt/yield ops, and the PartitionController — scripted
// shrink/grow handovers and the EWMA/hysteresis monitor.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/mem/kheap.hpp"
#include "src/os/elastic.hpp"
#include "src/os/ihk.hpp"
#include "src/os/kernel.hpp"
#include "src/os/mckernel.hpp"
#include "src/os/partition.hpp"
#include "src/sim/sync.hpp"

namespace pd::os {
namespace {

TEST(ElasticResource, GrowAddsUnitsShrinkTakesFreeThenDebt) {
  sim::Engine engine;
  sim::Resource res(engine, 2);
  res.grow(1);
  EXPECT_EQ(res.capacity(), 3u);
  EXPECT_EQ(res.available(), 3u);

  // Shrink with free units: taken immediately, no debt.
  EXPECT_TRUE(res.shrink(2));
  EXPECT_EQ(res.capacity(), 1u);
  EXPECT_EQ(res.available(), 1u);
  EXPECT_EQ(res.shrink_debt(), 0u);

  // A holder occupies the last unit; shrinking now must go through debt —
  // the unit retires when its holder releases, not before.
  sim::spawn(engine, [](sim::Engine& e, sim::Resource& r) -> sim::Task<> {
    co_await r.acquire();
    co_await e.delay(from_us(10));
    r.release();
  }(engine, res));
  engine.run_until(from_us(1));
  EXPECT_EQ(res.available(), 0u);
  EXPECT_TRUE(res.shrink(1));
  EXPECT_EQ(res.capacity(), 0u);
  EXPECT_EQ(res.shrink_debt(), 1u);
  engine.run();
  // The release was absorbed by the debt: the unit never re-entered the pool.
  EXPECT_EQ(res.shrink_debt(), 0u);
  EXPECT_EQ(res.available(), 0u);

  // Shrinking more than the capacity is refused untouched.
  EXPECT_FALSE(res.shrink(5));
  EXPECT_EQ(res.capacity(), 0u);
}

TEST(ElasticKheap, AdoptAddsCoreReleaseRehomesItsBlocks) {
  // 8 CPUs across 2 sockets (0-3 on socket 0, 4-7 on socket 1); the heap
  // owns {0, 1} and will adopt 2, all on socket 0.
  const mem::NumaTopology topo = mem::NumaTopology::blocked(8, 2);
  mem::KernelHeap heap({0, 1}, mem::ForeignFreePolicy::remote_queue, topo,
                       mem::PartitionBudget{});

  EXPECT_FALSE(heap.owns_cpu(2));
  ASSERT_TRUE(heap.adopt_cpu(2).ok());
  EXPECT_TRUE(heap.owns_cpu(2));
  EXPECT_EQ(heap.adopt_cpu(2).error(), Errno::einval);  // already owned
  EXPECT_EQ(heap.stats().cpu_adoptions, 1u);

  // The adopted core allocates; one block stays live, one is foreign-freed
  // onto its remote queue by a socket-1 CPU.
  auto live = heap.kmalloc(192, 2);
  auto queued = heap.kmalloc(192, 2);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE(heap.kfree(*queued, 5).ok());
  EXPECT_EQ(heap.remote_queue_depth(2), 1u);

  // Release: the queue is drained, the live block re-homes to a same-socket
  // survivor, and the core leaves the owned set.
  std::size_t drained = 0;
  ASSERT_TRUE(heap.release_cpu(2, &drained).ok());
  EXPECT_EQ(drained, 1u);
  EXPECT_FALSE(heap.owns_cpu(2));
  EXPECT_EQ(heap.stats().cpu_releases, 1u);
  EXPECT_GE(heap.stats().rehomed_blocks, 1u);

  // The re-homed block is still live and freeable — a later foreign free
  // lands on a queue somebody actually drains.
  EXPECT_FALSE(heap.data(*live).empty());
  ASSERT_TRUE(heap.kfree(*live, 5).ok());
  std::size_t reclaimed = 0;
  for (int cpu : {0, 1}) reclaimed += heap.drain_remote_frees(cpu);
  EXPECT_EQ(reclaimed, 1u);

  EXPECT_EQ(heap.release_cpu(2).error(), Errno::einval);  // no longer owned
}

TEST(ElasticKheap, LastCpuCannotBeReleased) {
  mem::KernelHeap heap({3}, mem::ForeignFreePolicy::remote_queue);
  EXPECT_EQ(heap.release_cpu(3).error(), Errno::ebusy);
  EXPECT_TRUE(heap.owns_cpu(3));
}

TEST(ElasticConfig, ValidationRules) {
  Config cfg;
  cfg.elastic_min_service_cpus = 0;
  EXPECT_FALSE(cfg.validate().ok());

  cfg = Config{};
  cfg.elastic_max_service_cpus = 2;
  cfg.elastic_min_service_cpus = 3;
  EXPECT_FALSE(cfg.validate().ok());

  cfg = Config{};
  cfg.elastic_max_service_cpus = cfg.cores_per_node;  // LWK would lose every core
  EXPECT_FALSE(cfg.validate().ok());

  cfg = Config{};
  cfg.elastic_enabled = true;
  EXPECT_TRUE(cfg.validate().ok()) << "enabled defaults must be valid";
  cfg.elastic_ewma_alpha = 0.0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg.elastic_ewma_alpha = 1.5;
  EXPECT_FALSE(cfg.validate().ok());

  cfg = Config{};
  cfg.elastic_enabled = true;
  cfg.elastic_p95_grow_us = 10.0;
  cfg.elastic_p95_shrink_us = 10.0;  // overlapping band would flap
  EXPECT_FALSE(cfg.validate().ok());

  cfg = Config{};
  cfg.elastic_enabled = true;
  cfg.elastic_hysteresis_checks = 0;
  EXPECT_FALSE(cfg.validate().ok());

  // The boot-shape rule only binds when the monitor is on: a direct-mode
  // config with no service CPUs (and elastic off) must stay valid.
  cfg = Config{};
  cfg.linux_service_cpus = 0;
  EXPECT_TRUE(cfg.validate().ok());
  cfg.elastic_enabled = true;
  EXPECT_FALSE(cfg.validate().ok());
}

TEST(ElasticPartition, AdoptYieldMoveNamedCpusWhileBooted) {
  HostInventory host(8, 1ull << 30);
  auto part = IhkPartition::create(host, 4, 1ull << 20);  // reserves 4..7
  ASSERT_TRUE(part.ok());
  ASSERT_TRUE(part->boot().ok());

  // The offline ops refuse while booted; the live ops do not.
  EXPECT_EQ(part->shrink_cpus(1).error(), Errno::ebusy);
  ASSERT_TRUE(part->yield_cpu(4).ok());
  EXPECT_TRUE(host.cpu_online(4));
  EXPECT_EQ(part->cpus().size(), 3u);
  EXPECT_EQ(part->yield_cpu(4).error(), Errno::einval);  // no longer held

  ASSERT_TRUE(part->adopt_cpu(3).ok());
  EXPECT_FALSE(host.cpu_online(3));
  EXPECT_EQ(part->adopt_cpu(3).error(), Errno::ebusy);  // already reserved
  EXPECT_EQ(part->cpus().front(), 3);
}

/// One simulated node wired for repartitioning: Linux + IHK + LWK over a
/// booted partition, and the controller that moves cores between them.
struct Node {
  explicit Node(Config c) : cfg(std::move(c)) {
    linux_kernel = std::make_unique<LinuxKernel>(engine, cfg);
    ihk = std::make_unique<Ihk>(engine, cfg, *linux_kernel);
    mck = std::make_unique<McKernel>(engine, cfg, *ihk, /*unified_layout=*/true);
    host = std::make_unique<HostInventory>(cfg.cores_per_node, 1ull << 34);
    auto p = IhkPartition::create(*host, cfg.cores_per_node - cfg.linux_service_cpus,
                                  1ull << 30);
    EXPECT_TRUE(p.ok());
    partition = std::make_unique<IhkPartition>(std::move(*p));
    EXPECT_TRUE(partition->boot().ok());
    ctl = std::make_unique<PartitionController>(engine, cfg, *ihk, *mck, partition.get());
  }

  /// Run one scripted repartition to completion (shrink when `shrink`).
  Status repartition(bool shrink, int n = 1) {
    Status out = Errno::eagain;
    sim::spawn(engine, [](Node& node, bool s, int count, Status& o) -> sim::Task<> {
      if (s)
        o = co_await node.ctl->shrink_service_cpus(count);
      else
        o = co_await node.ctl->grow_service_cpus(count);
    }(*this, shrink, n, out));
    engine.run();
    return out;
  }

  void flood(int ops, Dur work) {
    for (int i = 0; i < ops; ++i)
      sim::spawn(engine, [](Node& node, int ch, Dur w) -> sim::Task<> {
        auto r = co_await node.ihk->offload(
            [&node, w]() -> sim::Task<Result<long>> {
              co_await node.engine.delay(w);
              co_return 1;
            },
            ikc::Priority::bulk, ch);
        EXPECT_TRUE(r.ok());
      }(*this, i % 8, work));
  }

  sim::Engine engine;
  Config cfg;
  std::unique_ptr<LinuxKernel> linux_kernel;
  std::unique_ptr<Ihk> ihk;
  std::unique_ptr<McKernel> mck;
  std::unique_ptr<HostInventory> host;
  std::unique_ptr<IhkPartition> partition;
  std::unique_ptr<PartitionController> ctl;
};

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

Config elastic_ring_cfg() {
  Config cfg;
  cfg.ikc_mode = IkcMode::ring;
  return cfg;
}

TEST(PartitionControllerTest, ShrinkHandsServiceCpuToLwk) {
  auto cfg = elastic_ring_cfg();
  cfg.linux_service_cpus = 3;
  Node node(cfg);
  ASSERT_FALSE(contains(node.mck->cpus(), 2));

  ASSERT_TRUE(node.repartition(/*shrink=*/true).ok());

  // Every layer agrees cpu 2 moved: service pool, transport, both kheaps,
  // the LWK scheduler set and the IHK reservation.
  EXPECT_EQ(node.linux_kernel->service_cpu_count(), 2);
  EXPECT_EQ(node.ihk->transport().active_loops(), 2);
  EXPECT_FALSE(node.linux_kernel->kheap().owns_cpu(2));
  EXPECT_TRUE(node.mck->kheap().owns_cpu(2));
  EXPECT_TRUE(contains(node.mck->cpus(), 2));
  EXPECT_TRUE(contains(node.partition->cpus(), 2));
  EXPECT_FALSE(node.host->cpu_online(2));
  EXPECT_EQ(node.ctl->stats().shrinks, 1u);

  // Offloads still complete on the shrunk pool.
  node.flood(16, from_us(2));
  node.engine.run();
}

TEST(PartitionControllerTest, GrowPullsLwkCoreIntoServicePool) {
  auto cfg = elastic_ring_cfg();
  cfg.linux_service_cpus = 3;
  Node node(cfg);
  ASSERT_TRUE(node.repartition(/*shrink=*/true).ok());
  ASSERT_TRUE(node.repartition(/*shrink=*/false).ok());

  EXPECT_EQ(node.linux_kernel->service_cpu_count(), 3);
  EXPECT_EQ(node.ihk->transport().active_loops(), 3);
  EXPECT_TRUE(node.linux_kernel->kheap().owns_cpu(2));
  EXPECT_FALSE(node.mck->kheap().owns_cpu(2));
  EXPECT_FALSE(contains(node.mck->cpus(), 2));
  EXPECT_FALSE(contains(node.partition->cpus(), 2));
  EXPECT_EQ(node.ctl->stats().grows, 1u);

  node.flood(16, from_us(2));
  node.engine.run();
}

TEST(PartitionControllerTest, FloorAndCeilingAreEnforced) {
  auto cfg = elastic_ring_cfg();
  cfg.linux_service_cpus = 2;
  cfg.elastic_min_service_cpus = 2;
  Node node(cfg);
  EXPECT_EQ(node.repartition(/*shrink=*/true).error(), Errno::ebusy);
  // elastic_max_service_cpus defaults to 0 = the boot shape: no headroom.
  EXPECT_EQ(node.repartition(/*shrink=*/false).error(), Errno::ebusy);
  EXPECT_EQ(node.linux_kernel->service_cpu_count(), 2);
  EXPECT_EQ(node.ctl->stats().shrinks + node.ctl->stats().grows, 0u);
}

TEST(PartitionControllerTest, GrowBeyondBootShapeTakesLwkAppCore) {
  auto cfg = elastic_ring_cfg();
  cfg.linux_service_cpus = 2;
  cfg.elastic_max_service_cpus = 3;  // one slot of headroom past boot
  Node node(cfg);
  ASSERT_TRUE(contains(node.mck->cpus(), 2));  // boot: cpu 2 is an app core

  ASSERT_TRUE(node.repartition(/*shrink=*/false).ok());
  EXPECT_EQ(node.linux_kernel->service_cpu_count(), 3);
  EXPECT_EQ(node.ihk->transport().active_loops(), 3);
  EXPECT_FALSE(contains(node.mck->cpus(), 2));
  EXPECT_TRUE(node.host->cpu_online(2))
      << "the yielded core is back online under Linux for service use";
  // At the ceiling now.
  EXPECT_EQ(node.repartition(/*shrink=*/false).error(), Errno::ebusy);
}

TEST(PartitionControllerTest, MonitorGrowsPoolUnderSustainedQueueing) {
  auto cfg = elastic_ring_cfg();
  cfg.linux_service_cpus = 2;
  cfg.elastic_max_service_cpus = 4;
  cfg.elastic_enabled = true;
  cfg.elastic_check_interval = from_us(200);
  cfg.elastic_ewma_alpha = 1.0;
  cfg.elastic_p95_grow_us = 5.0;  // the flood's queueing is far above this
  cfg.elastic_p95_shrink_us = 0.01;
  cfg.elastic_hysteresis_checks = 2;
  cfg.elastic_cooldown = 0;
  Node node(cfg);

  node.flood(300, from_us(20));
  node.engine.run_until(from_ms(20));
  node.ctl->stop_monitor();
  node.engine.run();

  EXPECT_GE(node.ctl->stats().monitor_checks, 2u);
  EXPECT_GE(node.ctl->stats().grows, 1u);
  EXPECT_GT(node.linux_kernel->service_cpu_count(), 2);
  EXPECT_GT(node.ctl->stats().p95_ewma_us, cfg.elastic_p95_grow_us);
}

TEST(PartitionControllerTest, MonitorShrinksIdlePoolAndCooldownSuppressesFlap) {
  auto cfg = elastic_ring_cfg();
  cfg.linux_service_cpus = 3;
  cfg.elastic_enabled = true;
  cfg.elastic_check_interval = from_us(200);
  cfg.elastic_ewma_alpha = 1.0;
  cfg.elastic_p95_grow_us = 1e9;  // unreachable
  cfg.elastic_p95_shrink_us = 1e8;  // everything is "idle"
  cfg.elastic_hysteresis_checks = 3;
  cfg.elastic_cooldown = from_ms(100);  // longer than the whole run
  Node node(cfg);

  // A little traffic so the queueing summary has samples to judge.
  node.flood(8, from_us(2));
  node.engine.run_until(from_ms(10));
  node.ctl->stop_monitor();
  node.engine.run();

  // Exactly one shrink fits in the window: the cooldown swallowed every
  // later breach instead of letting the pool collapse check by check.
  EXPECT_EQ(node.ctl->stats().shrinks, 1u);
  EXPECT_GE(node.ctl->stats().flap_suppressed, 1u);
  EXPECT_EQ(node.linux_kernel->service_cpu_count(), 2);
  EXPECT_GE(node.linux_kernel->service_cpu_count(), cfg.elastic_min_service_cpus);
}

}  // namespace
}  // namespace pd::os
