#include "src/mpirt/cluster.hpp"

#include <cassert>

namespace pd::mpirt {

Cluster::Cluster(ClusterOptions opts) : opts_(std::move(opts)) {
  fabric_ = std::make_unique<hw::Fabric>(engine_, opts_.nodes, opts_.fabric);
  nodes_.reserve(static_cast<std::size_t>(opts_.nodes));
  for (int i = 0; i < opts_.nodes; ++i) {
    Node node;
    node.phys = std::make_unique<mem::PhysMap>(
        mem::PhysMap::knl(opts_.mcdram_bytes, opts_.ddr_bytes, opts_.cfg.numa_per_kind));
    node.device = std::make_unique<hw::HfiDevice>(engine_, *fabric_, i, opts_.hfi);
    // Each node's kernels get their own correlated-stall noise stream: the
    // `correlated` profile makes nodes straggle against each other, not
    // stall the whole cluster in lockstep.
    node.linux_kernel = std::make_unique<os::LinuxKernel>(engine_, opts_.cfg, i);
    node.driver = std::make_unique<hfi::HfiDriver>(*node.linux_kernel, *node.device,
                                                   opts_.driver_version);
    if (opts_.mode != os::OsMode::linux) {
      node.ihk = std::make_unique<os::Ihk>(engine_, opts_.cfg, *node.linux_kernel,
                                           node.phys.get());
      node.mck = std::make_unique<os::McKernel>(
          engine_, opts_.cfg, *node.ihk, opts_.mode == os::OsMode::mckernel_hfi, i);
      if (opts_.mode == os::OsMode::mckernel_hfi) {
        auto pico = pico::HfiPicoDriver::create(*node.mck, *node.driver);
        assert(pico.ok() && "PicoDriver bind must succeed with the unified layout");
        node.pico = std::move(*pico);
      }
    }
    nodes_.push_back(std::move(node));
  }
}

std::unique_ptr<os::Process> Cluster::make_process(int node_id, int ctxt) {
  Node& n = node(node_id);
  const std::uint64_t seed =
      0xC0FFEEull + static_cast<std::uint64_t>(node_id) * 1000003ull +
      static_cast<std::uint64_t>(ctxt);
  if (opts_.mode == os::OsMode::linux)
    return std::make_unique<os::Process>(*n.linux_kernel, *n.phys, node_id, ctxt, seed);
  return std::make_unique<os::Process>(*n.mck, *n.phys, node_id, ctxt, seed);
}

os::SyscallProfiler Cluster::app_kernel_profile() const {
  os::SyscallProfiler total;
  for (const auto& n : nodes_) {
    if (n.mck)
      total.merge(n.mck->profiler());
    else
      total.merge(n.linux_kernel->profiler());
  }
  return total;
}

}  // namespace pd::mpirt
