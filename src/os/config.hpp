// Calibration constants for the simulated software stack.
//
// Every cost in the model is a named constant here, so the ablation benches
// can sweep them and EXPERIMENTS.md can record exactly which knob produces
// which paper effect. Defaults are chosen to land the *relative* results of
// the paper (see DESIGN.md §5); they are not claims about absolute KNL
// timings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.hpp"
#include "src/common/time.hpp"
#include "src/os/noise.hpp"

namespace pd::os {

/// Which operating-system configuration a node boots (paper's three bars).
enum class OsMode {
  linux,         // plain Linux, HPC-tuned (nohz_full)
  mckernel,      // IHK/McKernel, all device syscalls offloaded
  mckernel_hfi,  // IHK/McKernel + HFI PicoDriver fast paths
};

constexpr const char* to_string(OsMode m) {
  switch (m) {
    case OsMode::linux: return "Linux";
    case OsMode::mckernel: return "McKernel";
    case OsMode::mckernel_hfi: return "McKernel+HFI1";
  }
  return "?";
}

/// Which transport carries offloaded syscalls across the kernel boundary
/// (src/ikc/). `direct` is the calibrated legacy path (one proxy wakeup per
/// offload); `ring` is the per-LWK-CPU shared-memory ring transport with
/// batched service loops.
enum class IkcMode {
  direct,
  ring,
};

constexpr const char* to_string(IkcMode m) {
  switch (m) {
    case IkcMode::direct: return "direct";
    case IkcMode::ring: return "ring";
  }
  return "?";
}

struct Config {
  // --- node topology (OFP compute node, paper §4.1) ---------------------
  int cores_per_node = 68;
  int app_cores = 64;            // cores handed to the application
  int linux_service_cpus = 4;    // cores kept for Linux daemons/OS work
  int numa_per_kind = 4;         // SNC-4

  // --- syscall & offload costs ------------------------------------------
  Dur syscall_entry = from_ns(300);        // Linux native trap in/out
  Dur lwk_syscall_entry = from_ns(120);    // LWK local syscall in/out
  Dur offload_oneway = from_us(0.8);       // IKC message latency
  Dur offload_dispatch = from_ns(600);     // proxy-side demultiplex
  Dur proxy_min_service = from_ns(800);    // floor for any offloaded service
  Dur proxy_wakeup_hot = from_us(1.2);     // schedule-in, idle cache-hot proxy
  Dur proxy_wakeup_cold = from_us(8.0);    // schedule-in under full contention
  // Driver work run by the proxy is slower than the same code run natively:
  // cross-CPU cache traffic, cold TLBs, and a loaded service core. The
  // paper's UMT/HACC collapse requires this factor; see the
  // bench_ablation_offload_* sweeps.
  double offload_service_multiplier = 4.0;
  // Under contention every additional runnable proxy degrades service:
  // runqueue management, cache/TLB thrash, IPI storms. Charged per waiting
  // proxy at dispatch time; this is what turns "busy" into "collapsed"
  // (UMT2013, Fig. 6a).
  Dur sched_thrash_per_waiter = from_us(1.5);
  int sched_thrash_cap_waiters = 20;  // degradation saturates beyond this

  // --- IKC ring transport (src/ikc/, ring mode only) ----------------------
  IkcMode ikc_mode = IkcMode::direct;  // legacy path stays the default
  int ikc_channels = 0;                // 0 → one per app core
  int ikc_ring_depth = 64;             // slots per priority ring
  Dur ikc_deadline = from_ms(10);      // ring-residency watchdog
  int ikc_max_retries = 2;             // rings tried after a timeout
  Dur ikc_retry_backoff = from_us(2);  // scaled by the attempt number
  Dur ikc_poll_interval = from_us(5);  // service-loop poll period
  int ikc_poll_spins = 4;              // polls before parking on doorbell
  int ikc_stall_threshold = 3;         // consecutive timeouts → suspect loop
  int ikc_probe_interval = 16;         // every Nth submit probes a suspect
  Dur ikc_doorbell_cost = from_ns(200);  // cross-kernel IPI to wake a loop
  Dur ikc_lock_cost = from_ns(60);       // ring spin-lock hand-off

  // --- IKC reply path (ring mode only) ------------------------------------
  int ikc_reply_depth = 64;              // starting completion slots per channel
  Dur ikc_reply_post_cost = from_ns(80);   // write one completion slot
  Dur ikc_reply_wakeup_cost = from_ns(600);  // completion IPI to the LWK core
  Dur ikc_reply_poll_interval = from_us(1);  // LWK slot-poll period
  Dur ikc_reply_poll_budget = from_us(200);  // polling before parking
  Dur ikc_reply_deadline = from_ms(2);   // parked consumer self-drains after
  // Autosize: a channel's reply ring doubles (up to ikc_reply_max_depth)
  // once it has hit ring-full `ikc_reply_autosize_threshold` times, instead
  // of paying a per-request fallback wakeup forever.
  int ikc_reply_autosize_threshold = 4;
  int ikc_reply_max_depth = 1024;

  // --- IKC adaptive batching (ring mode only) -----------------------------
  double ikc_adaptive_alpha = 0.25;      // EWMA weight of the newest depth
  double ikc_adaptive_headroom = 1.5;    // drain limit = ewma * headroom

  // --- IKC NUMA placement (ring mode only) --------------------------------
  bool ikc_numa_pin = true;              // pin loops to their rings' socket
  std::uint64_t ikc_ring_region_bytes = 16384;  // per-channel ring memory
  Dur ikc_remote_drain_cost = from_ns(300);  // cross-socket ring-line pull

  // --- IKC multi-tenant QoS (ring mode only) ------------------------------
  // Service loops drain weighted-fair: they claim ring heads in per-job
  // virtual-time order (vtime advances 1/weight per claimed request), so N
  // jobs sharing a loop split its drain capacity by weight instead of by
  // who queued deepest. A single job reduces to control-before-bulk, FIFO.
  // Per-job drain weight, indexed by JobId; jobs past the end (and an empty
  // vector) weigh 1.0. Weights must be > 0.
  std::vector<double> ikc_job_weights;
  // Admission control: bound each job's in-flight offloads (accepted but
  // not yet completed) to `ikc_job_credits × weight`, rounded up to >= 1.
  // On exhaustion the submitter backs off `ikc_credit_backoff × attempt`
  // up to `ikc_credit_retries` times waiting for a credit, then fails the
  // offload with EAGAIN instead of queueing without bound — a flooding
  // tenant throttles itself, it does not grow every ring. 0 = unlimited
  // (the single-tenant default).
  int ikc_job_credits = 0;
  int ikc_credit_retries = 3;
  Dur ikc_credit_backoff = from_us(5);

  // --- elastic CPU repartitioning (src/os/elastic.*) ----------------------
  // The PartitionController moves CPUs between the Linux service pool and
  // the LWK at runtime: shrink retires the highest service loop (quiesce →
  // re-shard → kheap drain → hand the core over), grow reverses it. The
  // monitor, when enabled, drives those ops from an EWMA of the offload
  // queueing p95 (`QueueingSummary`) with hysteresis so the partition
  // never flaps.
  bool elastic_enabled = false;          // autostart the p95 monitor
  int elastic_min_service_cpus = 1;      // shrink floor (Linux keeps >= 1)
  // Grow ceiling; 0 = the boot `linux_service_cpus` (no extra loop slots
  // are provisioned). > linux_service_cpus pre-sizes the transport's loop
  // table so the service set can grow past its boot shape.
  int elastic_max_service_cpus = 0;
  Dur elastic_check_interval = from_ms(5);   // monitor sampling period
  double elastic_ewma_alpha = 0.3;           // EWMA weight of the newest p95
  double elastic_p95_grow_us = 400.0;        // EWMA above → grow the pool
  double elastic_p95_shrink_us = 50.0;       // EWMA below → shrink the pool
  int elastic_hysteresis_checks = 3;     // consecutive breaches before acting
  Dur elastic_cooldown = from_ms(20);    // min gap between repartitions

  // --- driver fast-path work --------------------------------------------
  Dur gup_per_page = from_ns(60);         // get_user_pages, per 4 KiB page
  Dur ptw_per_page = from_ns(18);          // LWK page-table walk, per page
  Dur sdma_submit_per_desc = from_ns(90); // build + ring-write one descriptor
  Dur sdma_submit_base = from_ns(350);     // engine reserve + request setup
  Dur tid_program_per_entry = from_ns(120);// RcvArray programming, per entry
  Dur tid_program_base = from_ns(400);
  Dur irq_handler = from_us(1.1);          // SDMA completion IRQ + callbacks
  Dur driver_open_cost = from_us(25);      // context setup in open()
  Dur driver_mmap_cost = from_us(6);       // CSR/device mapping setup
  Dur driver_poll_cost = from_ns(700);

  // --- pd-doom command-queue accelerator ---------------------------------
  Dur doom_cmd_build = from_ns(140);         // validate + stage one command
  Dur doom_pte_program = from_ns(95);        // program one DMA page-table entry
  Dur doom_submit_base = from_ns(420);       // batch setup + ring reservation
  Dur doom_fence_poll = from_us(2);          // wait-fence poll period
  // A fence whose completion IRQ has not arrived after this long is checked
  // against the device's retire register; a retired-but-unreported fence is
  // recovered inline (the lost-IRQ rung).
  Dur doom_fence_irq_timeout = from_us(300);

  // --- PicoDriver-side costs --------------------------------------------
  Dur pico_bind_cost = from_us(150);       // per-rank kernel-mapping setup
  Dur pico_lock_acquire = from_ns(60);     // shared spin-lock hand-off
  // Extent-cache hit: validate the entry + copy cached runs, instead of
  // the per-page table walk (registration-cache amortization, §3.4).
  Dur pico_extent_cache_hit = from_ns(25);
  // Ring-full wait under the engine lock: bounded exponential backoff,
  // then give the lock up and fall back to the Linux writev path instead
  // of spinning unboundedly while holding the shared lock.
  int pico_ring_backoff_attempts = 8;
  Dur pico_ring_backoff_base = from_ns(500);
  Dur pico_ring_backoff_cap = from_us(8);

  // --- per-tenant driver quotas ------------------------------------------
  // TID/RcvArray quota behaviour when a context is at its expected_count
  // share: evict the context's *own* least-recently-registered TID entry
  // (unprogram + unpin, never a neighbour context's) to make room, instead
  // of failing the registration with ENOSPC. A request that cannot fit
  // even after evicting everything the context owns still gets ENOSPC.
  // Off by default: PSM's window grants treat ENOSPC as "retry after the
  // lazy frees drain" and must not have in-flight windows recycled under
  // them; a tenant using TID entries as a pure registration cache opts in.
  bool hfi_tid_quota_evict = false;
  // Per-tenant extent-cache footprint: how many per-open-file extent
  // caches one process may keep live in the PicoDriver. Opening a file
  // past the quota drops the same process's least-recently-used file
  // cache (pico.extent_cache.quota_file_evicted) — never another
  // tenant's. 0 = unlimited (the single-tenant default).
  int pico_extent_quota_files = 0;

  // --- kheap NUMA partitions (per SNC quadrant/"socket") ------------------
  // Byte budgets for each socket's near (MCDRAM-like) and far (DDR-like)
  // kernel-heap partition; the cold path falls back near → far → remote.
  std::uint64_t kheap_near_bytes = 256ull << 20;
  std::uint64_t kheap_far_bytes = 4ull << 30;

  // --- memory management ------------------------------------------------
  Dur mmap_base_cost = from_us(1.2);
  Dur linux_mmap_per_page = from_ns(90);
  Dur lwk_mmap_per_page = from_ns(60);     // large pages amortize
  Dur linux_munmap_per_page = from_ns(70);
  Dur lwk_munmap_per_page = from_ns(210);  // the §4.3 shortcoming (Fig. 9)
  double memcpy_bytes_per_sec = 5.0e9;     // single KNL core copy bandwidth

  // --- OS noise (nohz_full Linux vs noise-free LWK) ----------------------
  // Shaped per-kernel noise (src/os/noise.hpp): the Linux side defaults to
  // the calibrated nohz_full model (0.2% steady steal + rare daemon ticks,
  // numerically identical to the seed's scalar knobs), the LWK to silence.
  // `NoiseProfile::presets()` is the bench_noise_sweep axis.
  NoiseProfile linux_noise = NoiseProfile::calibrated();
  NoiseProfile lwk_noise = NoiseProfile::none();
  // Base seed for the per-kernel correlated-stall epoch streams; each kernel
  // instance derives its own stream from (noise_seed, node id), so nodes
  // straggle independently under the `correlated` profile.
  std::uint64_t noise_seed = 0x5EED'0001'5Eull;

  // --- PSM / protocol knobs ----------------------------------------------
  std::uint64_t pio_threshold = 8192;        // <= : PIO from user space
  std::uint64_t sdma_threshold = 65536;      // <= : eager SDMA; > : expected
  std::uint64_t expected_window = 131072;    // bytes per TID window / request
  int expected_concurrency = 2;              // windows in flight per message
  Dur psm_progress_poll = from_ns(150);      // one progress-loop iteration
  Dur psm_matching_cost = from_ns(250);      // MQ tag match per message
  Dur pio_send_overhead = from_ns(450);      // PIO doorbell + header build
  Dur psm_wait_sleep = from_ns(400);         // kernel visit inside MPI_Wait

  // --- hardware ----------------------------------------------------------
  // The Linux driver caps descriptors at one 4 KiB page (paper §3.4); the
  // fast path builds them up to the hardware's maximum.
  std::uint64_t pico_sdma_desc_bytes = 10240;

  /// Construction-time sanity check. A Config that selects the ring
  /// transport but reserves no Linux service CPUs used to surface only
  /// later, as a deadline ladder full of timeouts; now it is an EINVAL
  /// here, with `why` (when non-null) naming the offending knob.
  Status validate(std::string* why = nullptr) const {
    const auto fail = [&](const char* reason) -> Status {
      if (why != nullptr) *why = reason;
      return Errno::einval;
    };
    if (ikc_mode == IkcMode::ring) {
      if (linux_service_cpus <= 0)
        return fail("ikc_mode=ring needs linux_service_cpus > 0: the ring "
                    "transport is drained by dedicated Linux service loops");
      if (ikc_ring_depth <= 0) return fail("ikc_ring_depth must be > 0");
      if (ikc_reply_depth <= 0) return fail("ikc_reply_depth must be > 0");
      if (ikc_reply_autosize_threshold <= 0)
        return fail("ikc_reply_autosize_threshold must be > 0");
      if (ikc_reply_max_depth < ikc_reply_depth)
        return fail("ikc_reply_max_depth must be >= ikc_reply_depth");
      if (ikc_adaptive_alpha <= 0.0 || ikc_adaptive_alpha > 1.0)
        return fail("ikc_adaptive_alpha must be in (0, 1]");
      if (ikc_adaptive_headroom < 1.0) return fail("ikc_adaptive_headroom must be >= 1.0");
      for (const double w : ikc_job_weights)
        if (!(w > 0.0))
          return fail("ikc_job_weights entries must be > 0: a zero-weight "
                      "job would never be drained");
      if (ikc_job_credits < 0) return fail("ikc_job_credits must be >= 0");
      if (ikc_job_credits > 0 && ikc_credit_retries < 0)
        return fail("ikc_credit_retries must be >= 0");
      if (ikc_job_credits > 0 && ikc_credit_backoff < 0)
        return fail("ikc_credit_backoff must be >= 0");
    }
    if (const Status s = linux_noise.validate(why); !s.ok()) return s;
    if (const Status s = lwk_noise.validate(why); !s.ok()) return s;
    if (doom_fence_poll <= 0)
      return fail("doom_fence_poll must be > 0: wait-fence would spin");
    if (doom_fence_irq_timeout < doom_fence_poll)
      return fail("doom_fence_irq_timeout must be >= doom_fence_poll: the "
                  "lost-IRQ check fires from the poll loop");
    if (pico_extent_quota_files < 0)
      return fail("pico_extent_quota_files must be >= 0 (0 = unlimited)");
    if (elastic_min_service_cpus < 1)
      return fail("elastic_min_service_cpus must be >= 1: retiring the last "
                  "service loop would leave offloads with no Linux side");
    if (elastic_max_service_cpus != 0) {
      if (elastic_max_service_cpus < elastic_min_service_cpus)
        return fail("elastic_max_service_cpus must be 0 (= boot shape) or "
                    ">= elastic_min_service_cpus");
      if (elastic_max_service_cpus >= cores_per_node)
        return fail("elastic_max_service_cpus must leave the LWK at least "
                    "one core (< cores_per_node)");
    }
    if (elastic_enabled) {
      if (elastic_min_service_cpus > linux_service_cpus)
        return fail("elastic_min_service_cpus must be <= linux_service_cpus: "
                    "the boot shape is inside the elastic range");
      if (elastic_check_interval <= 0)
        return fail("elastic_check_interval must be > 0");
      if (elastic_ewma_alpha <= 0.0 || elastic_ewma_alpha > 1.0)
        return fail("elastic_ewma_alpha must be in (0, 1]");
      if (elastic_p95_shrink_us < 0.0 ||
          elastic_p95_grow_us <= elastic_p95_shrink_us)
        return fail("elastic p95 thresholds must satisfy 0 <= shrink < grow "
                    "(an overlapping band would flap)");
      if (elastic_hysteresis_checks < 1)
        return fail("elastic_hysteresis_checks must be >= 1");
      if (elastic_cooldown < 0) return fail("elastic_cooldown must be >= 0");
    }
    return Status::success();
  }
};

}  // namespace pd::os
