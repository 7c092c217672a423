#include "src/os/mckernel.hpp"

#include <algorithm>

namespace pd::os {

McKernel::McKernel(sim::Engine& engine, const Config& cfg, Ihk& ihk, bool unified_layout,
                   int node)
    : Kernel(engine, cfg, "mckernel",
             unified_layout ? mem::mckernel_unified_layout() : mem::mckernel_original_layout(),
             cfg.lwk_noise,
             cfg.noise_seed ^ (0x11CCull + static_cast<std::uint64_t>(node) *
                                               0x9E3779B97F4A7C15ull)),
      ihk_(ihk),
      unified_(unified_layout) {
  // IHK hands the LWK the app cores: [service_cpus, cores_per_node).
  for (int c = cfg.linux_service_cpus; c < cfg.cores_per_node; ++c) cpus_.push_back(c);
  // The node's SNC quadrants: every CPU — LWK app cores and the Linux
  // service CPUs that run completion IRQs — maps to a socket, so foreign
  // frees carry their true source socket into the remote queues.
  const mem::NumaTopology topo =
      mem::NumaTopology::blocked(cfg.cores_per_node, cfg.numa_per_kind);
  kheap_ = std::make_unique<mem::KernelHeap>(
      cpus_,
      // The remote-free queue only exists with the PicoDriver extension
      // (which requires the unified layout); the original allocator fails
      // on foreign CPUs.
      unified_ ? mem::ForeignFreePolicy::remote_queue : mem::ForeignFreePolicy::fail,
      topo, mem::PartitionBudget{cfg.kheap_near_bytes, cfg.kheap_far_bytes},
      /*heap_base=*/0x0000'00F0'0000'0000ull);
}

Status McKernel::adopt_cpu(int cpu) {
  if (std::find(cpus_.begin(), cpus_.end(), cpu) != cpus_.end()) return Errno::einval;
  if (const Status s = kheap_->adopt_cpu(cpu); !s.ok()) return s;
  cpus_.push_back(cpu);
  std::sort(cpus_.begin(), cpus_.end());
  return Status::success();
}

Status McKernel::yield_cpu(int cpu) {
  auto it = std::find(cpus_.begin(), cpus_.end(), cpu);
  if (it == cpus_.end()) return Errno::einval;
  if (cpus_.size() <= 1) return Errno::ebusy;
  // release_cpu drains the core's remote-free queue and re-homes its blocks
  // onto a same-socket survivor before the core leaves the scheduled set.
  if (const Status s = kheap_->release_cpu(cpu); !s.ok()) return s;
  cpus_.erase(it);
  return Status::success();
}

void McKernel::register_fastpath(CharDevice& dev, FastPathOps ops) {
  fastpaths_[&dev] = std::move(ops);
}

const FastPathOps* McKernel::fastpath(const CharDevice& dev) const {
  auto it = fastpaths_.find(&dev);
  return it == fastpaths_.end() ? nullptr : &it->second;
}

std::size_t McKernel::drain_remote_frees() {
  const std::uint64_t cross_before = kheap_->stats().cross_socket_drains;
  std::size_t total = 0;
  for (int cpu : cpus_) total += kheap_->drain_remote_frees(cpu);
  const std::uint64_t cross = kheap_->stats().cross_socket_drains - cross_before;
  if (cross > 0) profiler().bump("lwk.kheap.cross_socket_drain", cross);
  return total;
}

void McKernel::note_kheap_placement(const mem::KernelHeap::Stats& before) {
  const mem::KernelHeap::Stats& now = kheap_->stats();
  if (now.near_allocs > before.near_allocs)
    profiler().bump("lwk.kheap.near_alloc", now.near_allocs - before.near_allocs);
  if (now.far_allocs > before.far_allocs)
    profiler().bump("lwk.kheap.far_alloc", now.far_allocs - before.far_allocs);
  if (now.partition_exhausted > before.partition_exhausted)
    profiler().bump("lwk.kheap.partition_exhausted",
                    now.partition_exhausted - before.partition_exhausted);
}

}  // namespace pd::os
