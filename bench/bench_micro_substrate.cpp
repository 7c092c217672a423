// Micro-benchmarks of the substrate (google-benchmark): the costs of the
// building blocks the simulation leans on — event engine throughput,
// coroutine task spawn, buddy allocation, page-table walks, DWARF
// parse+extract, kernel-heap remote free.
#include <benchmark/benchmark.h>

#include "src/common/units.hpp"
#include "src/dwarf/extract.hpp"
#include "src/hfi/layouts.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/kheap.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/task.hpp"

namespace {

using namespace pd;

void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) engine.schedule_after(i, [] {});
    benchmark::DoNotOptimize(engine.run());
  }
}
BENCHMARK(BM_EngineScheduleRun);

void BM_CoroutineSpawnComplete(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 100; ++i) {
      sim::spawn(engine, [](sim::Engine& e) -> sim::Task<> {
        co_await e.delay(1);
        co_await e.delay(1);
      }(engine));
    }
    engine.run();
  }
}
BENCHMARK(BM_CoroutineSpawnComplete);

void BM_BuddyAllocFree(benchmark::State& state) {
  mem::BuddyAllocator buddy(0, 64_MiB);
  for (auto _ : state) {
    auto a = buddy.alloc(4096);
    benchmark::DoNotOptimize(a);
    if (a.ok()) buddy.free_bytes(*a, 4096);
  }
}
BENCHMARK(BM_BuddyAllocFree);

void BM_PageTableTranslate(benchmark::State& state) {
  mem::PageTable pt;
  for (int i = 0; i < 512; ++i)
    (void)pt.map(0x10000 + static_cast<mem::VirtAddr>(i) * 4096,
                 0x1000000 + static_cast<mem::PhysAddr>(i) * 4096, mem::kPage4K, 0);
  mem::VirtAddr va = 0x10000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.translate(va));
    va = 0x10000 + ((va + 4096) & (511ull * 4096));
  }
}
BENCHMARK(BM_PageTableTranslate);

void BM_PhysicalExtents1MiB(benchmark::State& state) {
  mem::PhysMap phys = mem::PhysMap::knl(256_MiB, 512_MiB, 1);
  mem::AddressSpace as(phys, mem::BackingPolicy::lwk_contig, mem::MemKind::mcdram,
                       0x20000000ull);
  auto va = as.mmap_anonymous(1_MiB, mem::kProtRead);
  for (auto _ : state) {
    auto extents = as.physical_extents(*va, 1_MiB, 10240);
    benchmark::DoNotOptimize(extents);
  }
}
BENCHMARK(BM_PhysicalExtents1MiB);

void BM_DwarfShipParseExtract(benchmark::State& state) {
  auto layouts = dwarf::LayoutTable::for_version(hfi::layout_spec(), "11.0-2");
  const dwarf::ModuleBinary module = layouts->ship_module();
  for (auto _ : state) {
    auto view = module.debug_info();
    auto layout = dwarf::extract_struct(*view, "sdma_state",
                                        {"current_state", "go_s99_running"});
    benchmark::DoNotOptimize(layout);
  }
}
BENCHMARK(BM_DwarfShipParseExtract);

void BM_KernelHeapRemoteFreeDrain(benchmark::State& state) {
  mem::KernelHeap heap({60, 61, 62, 63}, mem::ForeignFreePolicy::remote_queue);
  for (auto _ : state) {
    auto a = heap.kmalloc(192, 60);
    (void)heap.kfree(*a, /*linux cpu=*/0);
    benchmark::DoNotOptimize(heap.drain_remote_frees(60));
  }
}
BENCHMARK(BM_KernelHeapRemoteFreeDrain);

}  // namespace

BENCHMARK_MAIN();
