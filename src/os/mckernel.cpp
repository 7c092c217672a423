#include "src/os/mckernel.hpp"

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
  std::vector<int> cpus;
  for (int c = cfg.linux_service_cpus; c < cfg.cores_per_node; ++c) cpus.push_back(c);
  // The node's SNC quadrants: every CPU — LWK app cores and the Linux
  // service CPUs that run completion IRQs — maps to a socket, so foreign
  // frees carry their true source socket into the remote queues.
  const mem::NumaTopology topo =
      mem::NumaTopology::blocked(cfg.cores_per_node, cfg.numa_per_kind);
  kheap_ = std::make_unique<mem::KernelHeap>(
      std::move(cpus),
      // The remote-free queue only exists with the PicoDriver extension
      // (which requires the unified layout); the original allocator fails
      // on foreign CPUs.
      unified_ ? mem::ForeignFreePolicy::remote_queue : mem::ForeignFreePolicy::fail,
      topo, mem::PartitionBudget{cfg.kheap_near_bytes, cfg.kheap_far_bytes},
      /*heap_base=*/0x0000'00F0'0000'0000ull);
}

Status McKernel::adopt_cpu(int cpu) { return kheap_->adopt_cpu(cpu); }

Status McKernel::yield_cpu(int cpu) {
  // release_cpu drains the core's remote-free queue and re-homes its blocks
  // onto a same-socket survivor before the core leaves the owned set.
  return kheap_->release_cpu(cpu);
}

void McKernel::register_fastpath(CharDevice& dev, FastPathOps ops) {
  fastpaths_[&dev] = std::move(ops);
}

const FastPathOps* McKernel::fastpath(const CharDevice& dev) const {
  auto it = fastpaths_.find(&dev);
  return it == fastpaths_.end() ? nullptr : &it->second;
}

}  // namespace pd::os
