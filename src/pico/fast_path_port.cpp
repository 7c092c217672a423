#include "src/pico/fast_path_port.hpp"

#include <algorithm>
#include <cassert>

#include "src/os/process.hpp"

namespace pd::pico {

FastPathPort::FastPathPort(PicoBinding binding, os::McKernel& mck)
    : binding_(std::move(binding)), mck_(mck) {}

FastPathPort::~FastPathPort() = default;

Result<PicoBinding> FastPathPort::bind_checked(os::McKernel& mck,
                                               os::LinuxKernel& linux_kernel,
                                               const dwarf::ModuleBinary& module,
                                               const std::vector<StructRequest>& requests,
                                               const os::SharedSpinlock* submission_lock) {
  auto binding = PicoBinding::bind(mck, linux_kernel, module, requests);
  if (!binding.ok()) return binding.error();
  // §3.3: the LWK will take the driver's own submission spin-lock; the
  // implementations must be ABI-compatible or the shared lock word would
  // be corrupted.
  if (submission_lock != nullptr && submission_lock->abi() != mck.spinlock_abi())
    return Errno::enosys;
  return binding;
}

void FastPathPort::install(os::CharDevice& dev, os::FastPathOps ops) {
  mck_.register_fastpath(dev, std::move(ops));
}

std::span<std::uint8_t> FastPathPort::image(mem::PhysAddr addr, std::uint64_t byte_size) const {
  const std::span<std::uint8_t> bytes = binding_.linux_kernel().kheap().data(addr);
  return bytes.size() >= byte_size ? bytes : std::span<std::uint8_t>{};
}

sim::Task<> FastPathPort::rank_init() {
  // McKernel-side establishment of kernel mappings of driver internals —
  // the added MPI_Init cost the paper reports (Table 1, italic rows).
  co_await mck_.engine().delay(mck_.config().pico_bind_cost);
}

int FastPathPort::lwk_cpu_for(const os::Process& proc) const {
  const auto& cpus = mck_.cpus();
  return cpus[static_cast<std::size_t>(proc.ctxt()) % cpus.size()];
}

mem::ExtentCache& FastPathPort::extent_cache_for(const os::OpenFile& f) {
  const FileKey key{static_cast<const void*>(f.proc), f.fd};
  auto it = file_caches_.find(key);
  if (it == file_caches_.end()) {
    // `pico_extent_quota_files` caps how many per-file caches one process
    // may hold; at the cap its *own* coldest file cache is dropped. Other
    // processes' caches are never candidates, so a cache-hungry tenant
    // cannot flush a neighbour's translations. A cache with pinned entries
    // is never the victim either: a suspended fast path still holds a
    // reference to it and reads its extents when it resumes — eviction
    // falls to the next-coldest owned cache, and when every candidate is
    // pinned the quota temporarily overflows until a pin drops.
    const int cap = mck_.config().pico_extent_quota_files;
    if (cap > 0) {
      auto owned = [&](const FileKey& k) { return k.first == key.first; };
      auto count =
          std::count_if(file_cache_order_.begin(), file_cache_order_.end(), owned);
      while (count >= cap) {
        auto victim = file_cache_order_.end();
        for (auto pos = file_cache_order_.begin(); pos != file_cache_order_.end(); ++pos) {
          if (!owned(*pos)) continue;
          if (file_caches_.at(*pos).cache.pinned_entries() > 0) {
            ++cache_quota_skip_pinned_;
            mck_.profiler().bump("pico.extent_cache.quota_skip_pinned");
            continue;
          }
          victim = pos;
          break;
        }
        if (victim == file_cache_order_.end()) break;  // all pinned: overflow
        file_caches_.erase(*victim);
        file_cache_order_.erase(victim);
        ++cache_file_quota_evictions_;
        mck_.profiler().bump("pico.extent_cache.quota_file_evicted");
        --count;
      }
    }
    it = file_caches_.try_emplace(key).first;
    file_cache_order_.push_back(key);
    it->second.order_pos = std::prev(file_cache_order_.end());
  } else {
    // Refresh recency: O(1) splice of the touched key to the hot end (the
    // stored iterator stays valid — splice never invalidates them).
    file_cache_order_.splice(file_cache_order_.end(), file_cache_order_,
                             it->second.order_pos);
  }
  return it->second.cache;
}

void FastPathPort::note_cache_outcome(mem::ExtentCache::Outcome outcome) {
  switch (outcome) {
    case mem::ExtentCache::Outcome::hit:
      ++cache_hits_;
      mck_.profiler().bump("pico.extent_cache.hit");
      break;
    case mem::ExtentCache::Outcome::miss:
      ++cache_misses_;
      mck_.profiler().bump("pico.extent_cache.miss");
      break;
    case mem::ExtentCache::Outcome::evicted_small:
      // A cold miss that pushed out the lowest-value (small/transient)
      // entry; counted as a miss plus an eviction event.
      ++cache_misses_;
      mck_.profiler().bump("pico.extent_cache.miss");
      mck_.profiler().bump("pico.extent_cache.evicted_small");
      break;
  }
}

void FastPathPort::count_ring_full_fallback() {
  ++fallbacks_;
  ++ring_full_fallbacks_;
  mck_.profiler().bump("pico.ring_full_fallback");
}

Result<mem::PhysAddr> FastPathPort::kmalloc_meta(std::size_t bytes, int cpu) {
  // Steady state this is an O(1) pop off the core's slab magazine; a cold
  // refill carves from the core's near partition (placement outcomes land
  // on the profiler as lwk.kheap.{near_alloc,far_alloc,partition_exhausted}).
  const mem::KernelHeap::Stats stats_before = mck_.kheap().stats();
  auto meta = mck_.kheap().kmalloc(bytes, cpu);
  if (!meta.ok()) return meta.error();
  if (mck_.kheap().stats().slab_reuses != stats_before.slab_reuses)
    mck_.profiler().bump("lwk.kheap.slab_reuse");
  mck_.note_kheap_placement(stats_before);
  return meta;
}

os::KernelCallback FastPathPort::remote_free_cleanup(mem::PhysAddr meta_addr) {
  os::McKernel* mck = &mck_;
  os::LinuxKernel* lnx = &binding_.linux_kernel();
  return binding_.lwk_callback([mck, lnx, meta_addr] {
    // Runs on whichever Linux service CPU fields the IRQ: the foreign free
    // carries that CPU's socket into the remote queue, so the owner's
    // drain can batch reclaims per source socket.
    Status s = mck->kheap().kfree(meta_addr, lnx->current_irq_cpu());
    assert(s.ok());
    (void)s;
  });
}

}  // namespace pd::pico
