// Cluster assembly: N simulated nodes, each with its physical memory, HFI
// device, Linux kernel + HFI driver, and — per OS mode — IHK/McKernel and
// the HFI PicoDriver. This is the piece that boots one of the paper's
// three configurations (Linux / McKernel / McKernel+HFI1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/hfi/driver.hpp"
#include "src/hw/fabric.hpp"
#include "src/hw/hfi_device.hpp"
#include "src/os/config.hpp"
#include "src/pico/hfi_picodriver.hpp"

namespace pd::mpirt {

struct ClusterOptions {
  int nodes = 1;
  os::OsMode mode = os::OsMode::linux;
  os::Config cfg = {};
  hw::FabricConfig fabric = {};
  hw::HfiConfig hfi = {};
  std::string driver_version = "10.8-0";
  /// Simulated physical memory per node; defaults sized well below the
  /// real 16/96 GB so host-side bookkeeping stays cheap at 256 nodes.
  std::uint64_t mcdram_bytes = 2ull << 30;
  std::uint64_t ddr_bytes = 6ull << 30;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  struct Node {
    std::unique_ptr<mem::PhysMap> phys;
    std::unique_ptr<hw::HfiDevice> device;
    std::unique_ptr<os::LinuxKernel> linux_kernel;
    std::unique_ptr<os::Ihk> ihk;          // null in Linux mode
    std::unique_ptr<os::McKernel> mck;     // null in Linux mode
    std::unique_ptr<hfi::HfiDriver> driver;
    std::unique_ptr<pico::HfiPicoDriver> pico;  // only in mckernel_hfi mode
  };

  sim::Engine& engine() { return engine_; }
  const ClusterOptions& options() const { return opts_; }
  os::OsMode mode() const { return opts_.mode; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return nodes_.at(static_cast<std::size_t>(i)); }
  hw::Fabric& fabric() { return *fabric_; }

  /// Create a process (one MPI rank slot) on a node, on the kernel the
  /// cluster mode dictates.
  std::unique_ptr<os::Process> make_process(int node, int ctxt);

  /// The profiler that corresponds to the paper's "kernel time of the
  /// application's OS" (McKernel in multi-kernel modes, Linux otherwise),
  /// aggregated across nodes.
  os::SyscallProfiler app_kernel_profile() const;

 private:
  ClusterOptions opts_;
  sim::Engine engine_;
  std::unique_ptr<hw::Fabric> fabric_;
  std::vector<Node> nodes_;
};

}  // namespace pd::mpirt
