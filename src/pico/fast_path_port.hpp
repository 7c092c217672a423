// FastPathPort: the device-independent half of every PicoDriver.
//
// The first PicoDriver (HFI) accreted a set of mechanisms that have nothing
// to do with SDMA: the bind-and-ABI-check entry flow, registration of
// fast-path ops with the LWK, per-open-file extent caches with a per-process
// quota and pin-aware LRU eviction, the remote-free drain piggybacked on
// fast-path entry, the duplicated-text cleanup callback that frees LWK
// completion metadata from a Linux IRQ, and the "pico.*" profiler counter
// namespace. The second device class (pd-doom) needs every one of them, so
// they live here and both drivers inherit:
//
//   HfiPicoDriver  : public FastPathPort  — fast writev + TID ioctls
//   DoomPicoDriver : public FastPathPort  — fast batched submit ioctl
//
// The contract: a port owns a PicoBinding, installs os::FastPathOps for
// exactly the commands it accelerates, falls back to the Linux driver when
// the device is unhealthy or the ring stays full (counted through
// count_fallback / count_ring_full_fallback so every device reports
// fallbacks the same way), and translates user buffers through
// extent_cache_for() so all devices share the cache policy and its
// "pico.extent_cache.*" counters.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "src/mem/extent_cache.hpp"
#include "src/pico/framework.hpp"

namespace pd::pico {

/// Pooled vectors with capacity kept warm: the steady-state fast path
/// builds descriptors/commands into a recycled buffer instead of
/// allocating. Each derived driver owns one arena per payload type.
template <typename T>
class BufferArena {
 public:
  std::vector<T> take() {
    if (pool_.empty()) return {};
    std::vector<T> buf = std::move(pool_.back());
    pool_.pop_back();
    buf.clear();
    return buf;
  }
  void recycle(std::vector<T>&& buf) {
    if (pool_.size() < kPooledBuffers) pool_.push_back(std::move(buf));
  }

 private:
  static constexpr std::size_t kPooledBuffers = 64;
  std::vector<std::vector<T>> pool_;
};

class FastPathPort {
 public:
  virtual ~FastPathPort();

  FastPathPort(const FastPathPort&) = delete;
  FastPathPort& operator=(const FastPathPort&) = delete;

  const PicoBinding& binding() const { return binding_; }

  /// Per-rank initialization cost (kernel-level mapping setup); PSM calls
  /// this from its init path — the extra MPI_Init time in Table 1.
  sim::Task<> rank_init();

  /// --- shared instrumentation (same names on every device) ---------------
  std::uint64_t fallbacks() const { return fallbacks_; }
  std::uint64_t ring_full_fallbacks() const { return ring_full_fallbacks_; }
  std::uint64_t extent_cache_hits() const { return cache_hits_; }
  std::uint64_t extent_cache_misses() const { return cache_misses_; }
  /// Always 0: a cached range is re-walked only once it is unmapped, and
  /// that walk faults. Kept for readers of the older per-layer metrics.
  std::uint64_t extent_cache_range_invalidations() const { return 0; }
  std::uint64_t extent_cache_generation_overflows() const { return 0; }
  /// Whole file caches dropped to keep a process inside
  /// `Config::pico_extent_quota_files` (own-LRU only; see extent_cache_for).
  std::uint64_t extent_cache_file_quota_evictions() const {
    return cache_file_quota_evictions_;
  }
  /// Quota-eviction candidates passed over because an in-flight fast path
  /// held pinned entries in them (the eviction falls to the next-coldest
  /// owned cache; all-pinned overflows the quota until a pin drops).
  std::uint64_t extent_cache_quota_skip_pinned() const {
    return cache_quota_skip_pinned_;
  }

 protected:
  FastPathPort(PicoBinding binding, os::McKernel& mck);

  /// The shared entry flow: PicoBinding::bind against the shipped module,
  /// then the §3.3 lock-ABI check against the driver's submission lock
  /// (pass nullptr when the device has no shared lock). Forwards bind
  /// errors; ENOSYS on ABI mismatch.
  static Result<PicoBinding> bind_checked(os::McKernel& mck, os::LinuxKernel& linux_kernel,
                                          const dwarf::ModuleBinary& module,
                                          const std::vector<StructRequest>& requests,
                                          const os::SharedSpinlock* submission_lock);

  /// Install this port's ops as the device's LWK fast path.
  void install(os::CharDevice& dev, os::FastPathOps ops);

  /// Host bytes of the Linux driver's structure image at `addr` — empty
  /// unless the live block covers `byte_size`, the size the module's debug
  /// info declares for the structure. A bound accessor stays inside the
  /// declared structure; this keeps it inside the block the driver
  /// actually allocated. Fast paths return EINVAL on an empty span.
  std::span<std::uint8_t> image(mem::PhysAddr addr, std::uint64_t byte_size) const;

  /// Scheduler-tick housekeeping piggybacked on fast-path entry: reclaim
  /// blocks the Linux IRQ side queued for our cores.
  void piggyback_drain() { mck_.kheap().drain_remote_frees(); }

  int lwk_cpu_for(const os::Process& proc) const;

  /// Per-open-file translation cache (keyed by process identity + fd so a
  /// recycled OpenFile slot can never alias a previous file's entries).
  mem::ExtentCache& extent_cache_for(const os::OpenFile& f);
  /// Record a lookup outcome in the local counters and the LWK profiler.
  void note_cache_outcome(mem::ExtentCache::Outcome outcome);

  /// Fallback accounting: every fallback to the Linux path, and the
  /// ring-stayed-full subset (which also lands on the profiler).
  void count_fallback() { ++fallbacks_; }
  void count_ring_full_fallback();

  /// The duplicated cleanup callback (§3.3): LWK TEXT, runs on a Linux IRQ
  /// CPU, frees the metadata through the remote-free queue.
  os::KernelCallback remote_free_cleanup(mem::PhysAddr meta_addr);

  PicoBinding binding_;
  os::McKernel& mck_;

 private:
  /// Per-file cache plus its position in the recency list, so a touch is
  /// an O(1) splice instead of an O(n) find+rotate.
  using FileKey = std::pair<const void*, int>;
  struct FileCacheNode {
    mem::ExtentCache cache;
    std::list<FileKey>::iterator order_pos;
  };
  std::map<FileKey, FileCacheNode> file_caches_;
  // Touch order (front = coldest) for the per-process file-cache quota.
  std::list<FileKey> file_cache_order_;

  std::uint64_t fallbacks_ = 0;
  std::uint64_t ring_full_fallbacks_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_file_quota_evictions_ = 0;
  std::uint64_t cache_quota_skip_pinned_ = 0;
};

}  // namespace pd::pico
