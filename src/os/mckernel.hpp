// McKernel: the lightweight co-kernel (paper §2.1) with the PicoDriver
// fast-path hook points.
//
// McKernel implements its own memory management and a handful of syscalls;
// everything else — including every device-file operation, unless a
// PicoDriver registered a fast path for it — is delegated to Linux through
// IHK. The fast-path registry is deliberately tiny: a device maps to a
// writev handler, an ioctl handler and a predicate saying *which* ioctl
// commands the LWK handles (three TID commands out of a dozen, §2.2.2).
//
// The LWK's CPU set lives in its kernel heap (§3.3's per-core allocator):
// cpus() reads the heap's owned set, adopt_cpu/yield_cpu move a core in
// and out of it, and the heap's counts are read from kheap().stats().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>

#include "src/common/status.hpp"
#include "src/mem/kheap.hpp"
#include "src/os/ihk.hpp"
#include "src/os/kernel.hpp"

namespace pd::os {

/// Fast-path device operations a PicoDriver installs into the LWK.
struct FastPathOps {
  std::function<sim::Task<Result<long>>(OpenFile&, std::span<const IoVec>)> writev;
  std::function<sim::Task<Result<long>>(OpenFile&, unsigned long, void*)> ioctl;
  std::function<bool(unsigned long)> ioctl_handles;  // cmd → fast path?
};

class McKernel : public Kernel {
 public:
  /// `unified_layout`: boot with the PicoDriver VA layout (Figure 3 right)
  /// instead of the original one. Required before any PicoDriver can bind.
  McKernel(sim::Engine& engine, const Config& cfg, Ihk& ihk, bool unified_layout,
           int node = 0);

  Ihk& ihk() { return ihk_; }
  bool unified() const { return unified_; }

  /// --- PicoDriver fast-path registry -------------------------------------
  void register_fastpath(CharDevice& dev, FastPathOps ops);
  const FastPathOps* fastpath(const CharDevice& dev) const;

  /// --- §3.3 pieces --------------------------------------------------------
  std::string spinlock_abi() const { return "ticket-spinlock-x86_64-v2"; }
  mem::KernelHeap& kheap() { return *kheap_; }

  /// CPU ids the LWK owns (app cores), ascending: the heap's owned set.
  const std::vector<int>& cpus() const { return kheap_->owned_cpus(); }

  /// --- elastic repartitioning (§8.7) --------------------------------------
  /// Adopt `cpu` at runtime (a Linux service core retired into the LWK):
  /// it joins the kheap's owned set. EINVAL when already owned.
  Status adopt_cpu(int cpu);
  /// Yield `cpu` back to Linux: the kheap drains its remote-free queue,
  /// donates its magazines and re-homes its blocks, then the core leaves
  /// the owned set. EINVAL when not owned, EBUSY when it is the last LWK
  /// core.
  Status yield_cpu(int cpu);

 private:
  Ihk& ihk_;
  bool unified_;
  std::unique_ptr<mem::KernelHeap> kheap_;
  std::map<const CharDevice*, FastPathOps> fastpaths_;
};

}  // namespace pd::os
