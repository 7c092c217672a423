#include "src/os/kernel.hpp"

#include <cassert>

#include "src/common/log.hpp"

namespace pd::os {

Kernel::Kernel(sim::Engine& engine, const Config& cfg, std::string name,
               mem::KernelLayout layout, NoiseProfile noise_profile,
               std::uint64_t noise_stream_seed)
    : engine_(engine),
      cfg_(cfg),
      name_(std::move(name)),
      layout_(std::move(layout)),
      noise_(std::move(noise_profile), noise_stream_seed) {}

Dur Kernel::noisy_duration(Dur work, Rng& rng) const {
  return noise_.inflate(engine_.now(), work, rng);
}

sim::Task<> Kernel::compute(Dur work, Rng& rng) {
  NoiseModel::Breakdown b;
  const Dur total = noise_.inflate(engine_.now(), work, rng, &b);
  // Counters only (bump, never record): the timed rows are the Figure 8/9
  // syscall profiles and must not absorb scheduler noise.
  if (b.total() > 0) {
    profiler_.bump("os.noise.time_ns", static_cast<std::uint64_t>(b.total()));
    if (b.steady > 0)
      profiler_.bump("os.noise.steady_ns", static_cast<std::uint64_t>(b.steady));
    if (b.daemon_ticks > 0) {
      profiler_.bump("os.noise.daemon_ticks", b.daemon_ticks);
      profiler_.bump("os.noise.daemon_ns", static_cast<std::uint64_t>(b.daemon));
    }
    if (b.bursts > 0) {
      profiler_.bump("os.noise.bursts", b.bursts);
      profiler_.bump("os.noise.burst_ns", static_cast<std::uint64_t>(b.burst));
    }
    if (b.stall_epochs > 0) {
      profiler_.bump("os.noise.stall_epochs", b.stall_epochs);
      profiler_.bump("os.noise.stall_ns", static_cast<std::uint64_t>(b.stall));
    }
  }
  co_await engine_.delay(total);
}

LinuxKernel::LinuxKernel(sim::Engine& engine, const Config& cfg, int node)
    : Kernel(engine, cfg, "linux", mem::linux_layout(), cfg.linux_noise,
             cfg.noise_seed ^ (0x11AAull + static_cast<std::uint64_t>(node) *
                                               0x9E3779B97F4A7C15ull)) {
  service_cpus_ = std::make_unique<sim::Resource>(
      engine, static_cast<std::size_t>(cfg.linux_service_cpus));
  // Linux owns the service CPUs (ids 0 .. linux_service_cpus-1); the
  // kheap's owned set is the service set. Its topology spans the whole
  // node, but every Linux-heap kmalloc and kfree passes the driver's
  // alloc_cpu() — CPU 0 for both drivers — so its blocks are carved on
  // socket 0, and no foreign CPU frees one (its remote-free queues stay
  // empty).
  std::vector<int> cpus;
  for (int i = 0; i < cfg.linux_service_cpus; ++i) cpus.push_back(i);
  const mem::NumaTopology topo =
      mem::NumaTopology::blocked(cfg.cores_per_node, cfg.numa_per_kind);
  kheap_ = std::make_unique<mem::KernelHeap>(
      std::move(cpus), mem::ForeignFreePolicy::remote_queue, topo,
      mem::PartitionBudget{cfg.kheap_near_bytes, cfg.kheap_far_bytes},
      /*heap_base=*/0x0000'00F8'0000'0000ull);
}

Status LinuxKernel::adopt_service_cpu(int cpu) {
  // The service set stays the prefix [0, count): the transport's loop l
  // runs on service CPU l, so cores join and leave at the top only.
  if (cpu != service_cpu_count()) return Errno::einval;
  if (const Status s = kheap_->adopt_cpu(cpu); !s.ok()) return s;
  service_cpus_->grow(1);
  return Status::success();
}

Status LinuxKernel::yield_service_cpu(int cpu) {
  if (service_cpu_count() <= 1) return Errno::ebusy;
  if (cpu != service_cpu_count() - 1) return Errno::einval;
  if (const Status s = kheap_->release_cpu(cpu); !s.ok()) return s;
  service_cpus_->shrink(1);
  // IRQ rotation must stay inside the shrunk pool.
  next_irq_cpu_ %= service_cpu_count();
  if (current_irq_cpu_ >= service_cpu_count()) current_irq_cpu_ = 0;
  return Status::success();
}

void LinuxKernel::register_device(CharDevice& dev) { devices_[dev.dev_name()] = &dev; }

CharDevice* LinuxKernel::device(const std::string& name) {
  auto it = devices_.find(name);
  return it == devices_.end() ? nullptr : it->second;
}

Status LinuxKernel::reserve_vmap_area(const mem::VaRange& range) {
  // vmap_area reservations must fall inside the module space and must not
  // collide with existing reservations.
  if (!layout().module_space.contains_range(range)) return Errno::einval;
  for (const auto& r : vmap_reservations_)
    if (r.overlaps(range)) return Errno::eexist;
  vmap_reservations_.push_back(range);
  return Status::success();
}

bool LinuxKernel::text_visible(mem::VirtAddr text) const {
  if (layout().image.contains(text)) return true;
  for (const auto& r : vmap_reservations_)
    if (r.contains(text)) return true;
  return false;
}

Status LinuxKernel::invoke(const KernelCallback& cb) {
  if (!text_visible(cb.text)) {
    ++callback_faults_;
    PD_LOG(error) << "linux: callback text 0x" << std::hex << cb.text
                  << " not mapped — would fault";
    return Errno::efault;
  }
  if (cb.fn) cb.fn();
  return Status::success();
}

void LinuxKernel::raise_irq(std::vector<KernelCallback> callbacks) {
  sim::spawn(engine_, irq_task(std::move(callbacks)));
}

sim::Task<> LinuxKernel::irq_task(std::vector<KernelCallback> callbacks) {
  // Device interrupts are serviced by the Linux service CPUs (McKernel
  // never fields them, paper §3.3).
  co_await service_cpus_->acquire();
  co_await engine_.delay(config().irq_handler);
  ++irqs_handled_;
  // Rotate IRQ affinity across the pool, like irqbalance would; set
  // immediately before the callbacks with no suspension in between, so
  // current_irq_cpu() is stable for the whole callback chain even with
  // several IRQ tasks interleaving.
  current_irq_cpu_ = next_irq_cpu_;
  next_irq_cpu_ = (next_irq_cpu_ + 1) % service_cpu_count();
  for (const auto& cb : callbacks) (void)invoke(cb);
  service_cpus_->release();
}

}  // namespace pd::os
