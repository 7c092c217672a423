// Kernel models.
//
// `Kernel` is the shared skeleton: a name, a VA layout, a syscall profiler
// and the compute-time noise model. `LinuxKernel` adds what the paper's
// architecture actually leans on: the VFS device registry, the pool of
// service CPUs that field offloaded syscalls *and* device IRQs, vmap_area
// reservations (how McKernel TEXT becomes visible, §3.1), and the
// callback-invocation check that fails when a function's text is not
// mapped on the Linux side.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/mem/kheap.hpp"
#include "src/mem/va_layout.hpp"
#include "src/os/config.hpp"
#include "src/os/noise.hpp"
#include "src/os/profiler.hpp"
#include "src/os/vfs.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/sync.hpp"
#include "src/sim/task.hpp"

namespace pd::os {

/// A kernel function referenced across kernel boundaries: the simulated
/// text address locates it in a VA layout, `fn` is its behaviour.
struct KernelCallback {
  mem::VirtAddr text = 0;
  std::function<void()> fn;
};

class Kernel {
 public:
  Kernel(sim::Engine& engine, const Config& cfg, std::string name, mem::KernelLayout layout,
         NoiseProfile noise_profile, std::uint64_t noise_stream_seed);
  virtual ~Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  const std::string& name() const { return name_; }
  const mem::KernelLayout& layout() const { return layout_; }
  sim::Engine& engine() { return engine_; }
  const Config& config() const { return cfg_; }
  SyscallProfiler& profiler() { return profiler_; }
  const SyscallProfiler& profiler() const { return profiler_; }

  /// Application compute of `work` on an app core of this kernel; OS noise
  /// (steady duty, daemon ticks, IRQ bursts, correlated stalls) inflates it
  /// per the kernel's noise profile, and the injected time is accounted in
  /// the profiler's "os.noise.*" counters (counters only — noise must not
  /// pollute the timed syscall rows that feed Figures 8/9).
  sim::Task<> compute(Dur work, Rng& rng);

  /// Deterministic inflation used by tests/benches to reason about noise.
  /// Anchored at the engine's current simulated time (the correlated-stall
  /// schedule is a function of absolute time).
  Dur noisy_duration(Dur work, Rng& rng) const;

  /// The kernel's noise injector (profile + correlated epoch schedule).
  const NoiseModel& noise() const { return noise_; }

 protected:
  sim::Engine& engine_;
  const Config& cfg_;

 private:
  std::string name_;
  mem::KernelLayout layout_;
  SyscallProfiler profiler_;
  NoiseModel noise_;
};

class LinuxKernel : public Kernel {
 public:
  /// `node` selects this instance's correlated-stall stream (one schedule
  /// per node, independent across nodes); single-node tests can omit it.
  LinuxKernel(sim::Engine& engine, const Config& cfg, int node = 0);

  /// --- VFS --------------------------------------------------------------
  void register_device(CharDevice& dev);
  CharDevice* device(const std::string& name);

  /// --- service CPUs -------------------------------------------------------
  /// The `linux_service_cpus` cores: offloaded syscalls and IRQ bottom
  /// halves all contend here (the paper's 4-CPUs-vs-64-ranks squeeze).
  sim::Resource& service_cpus() { return *service_cpus_; }

  /// Service CPUs currently owned (boot `linux_service_cpus`, moved by the
  /// elastic PartitionController): the Linux kheap's owned set, always the
  /// prefix [0, count).
  int service_cpu_count() const { return static_cast<int>(kheap_->owned_cpus().size()); }
  /// Adopt `cpu` into the service pool at runtime (a core the LWK handed
  /// back): the Resource gains a unit, the Linux kheap adopts the core, and
  /// IRQ rotation covers it. `cpu` must extend the prefix (== count).
  Status adopt_service_cpu(int cpu);
  /// Yield `cpu` from the service pool to the LWK: the kheap re-homes its
  /// blocks and drains its remote-free queue, the Resource retires a unit
  /// (lazily if currently held). `cpu` must be the top of the prefix
  /// (== count-1); the last service CPU cannot leave.
  Status yield_service_cpu(int cpu);

  /// Raise a device IRQ: a service CPU runs the handler, then the chain of
  /// completion callbacks — each checked for text visibility.
  void raise_irq(std::vector<KernelCallback> callbacks);

  /// The service CPU executing the current IRQ's callbacks (IRQs rotate
  /// across the service pool). Completion-side kfree() passes this so the
  /// LWK heap learns the *real* source socket of a foreign free instead of
  /// a hard-coded representative CPU.
  int current_irq_cpu() const { return current_irq_cpu_; }

  /// --- cross-kernel text mapping (§3.1) -----------------------------------
  /// Reserve a vmap_area so another kernel's image becomes visible here.
  Status reserve_vmap_area(const mem::VaRange& range);

  /// Can code at `text` be called from this kernel?
  bool text_visible(mem::VirtAddr text) const;

  /// Invoke a callback with the §3.1 visibility check. EFAULT (and a
  /// counter bump) when the callback's text is not mapped on Linux.
  Status invoke(const KernelCallback& cb);

  std::uint64_t callback_faults() const { return callback_faults_; }
  std::uint64_t irqs_handled() const { return irqs_handled_; }

  /// The lock ABI identifier used for the §3.3 compatibility check.
  std::string spinlock_abi() const { return "ticket-spinlock-x86_64-v2"; }

  mem::KernelHeap& kheap() { return *kheap_; }

 private:
  sim::Task<> irq_task(std::vector<KernelCallback> callbacks);

  std::map<std::string, CharDevice*> devices_;
  std::unique_ptr<sim::Resource> service_cpus_;
  std::vector<mem::VaRange> vmap_reservations_;
  std::unique_ptr<mem::KernelHeap> kheap_;
  std::uint64_t callback_faults_ = 0;
  std::uint64_t irqs_handled_ = 0;
  int current_irq_cpu_ = 0;
  int next_irq_cpu_ = 0;
};

}  // namespace pd::os
