#include "src/pico/hfi_picodriver.hpp"

#include <algorithm>
#include <cassert>

#include "src/common/log.hpp"

namespace pd::pico {

using namespace pd::time_literals;

Result<std::unique_ptr<HfiPicoDriver>> HfiPicoDriver::create(os::McKernel& mck,
                                                             hfi::HfiDriver& driver) {
  // The structures and fields the fast path touches — nothing more. These
  // are the "less than 3K SLOC" worth of driver internals (§3).
  const std::vector<StructRequest> requests = {
      {"sdma_engine", {"this_idx", "descq_submitted", "state"}},
      {"sdma_state", {"current_state", "go_s99_running"}},
      {"hfi1_filedata", {"ctxt", "sdma_engine_idx", "tid_used"}},
      {"hfi1_ctxtdata", {"expected_base", "expected_count"}},
  };
  const os::SharedSpinlock* lock =
      driver.device().num_engines() > 0 ? &driver.engine_lock(0) : nullptr;
  auto binding = bind_checked(mck, driver.linux_kernel(), driver.module_binary(),
                              requests, lock);
  if (!binding.ok()) return binding.error();

  auto pico = std::unique_ptr<HfiPicoDriver>(
      new HfiPicoDriver(std::move(*binding), mck, driver));
  if (!pico->fields_bound()) return Errno::einval;

  os::FastPathOps ops;
  HfiPicoDriver* raw = pico.get();
  ops.writev = [raw](os::OpenFile& f, std::span<const os::IoVec> iov) {
    return raw->fast_writev(f, iov);
  };
  ops.ioctl = [raw](os::OpenFile& f, unsigned long cmd, void* arg) {
    return raw->fast_ioctl(f, cmd, arg);
  };
  ops.ioctl_handles = [](unsigned long cmd) { return hfi::is_tid_cmd(cmd); };
  raw->install(driver, std::move(ops));
  return pico;
}

HfiPicoDriver::HfiPicoDriver(PicoBinding binding, os::McKernel& mck, hfi::HfiDriver& driver)
    : FastPathPort(std::move(binding), mck), driver_(driver) {
  const dwarf::StructLayout* eng = binding_.layout("sdma_engine");
  const dwarf::StructLayout* state = binding_.layout("sdma_state");
  const dwarf::StructLayout* fd = binding_.layout("hfi1_filedata");
  const dwarf::StructLayout* cd = binding_.layout("hfi1_ctxtdata");
  assert(eng && state && fd && cd);
  eng_this_idx_ = dwarf::FieldAccessor<std::uint32_t>(*eng->field("this_idx"));
  eng_descq_submitted_ = dwarf::FieldAccessor<std::uint64_t>(*eng->field("descq_submitted"));
  state_current_ = dwarf::FieldAccessor<std::uint32_t>(*eng->field("state"), *state,
                                                       *state->field("current_state"));
  fd_engine_idx_ = dwarf::FieldAccessor<std::uint32_t>(*fd->field("sdma_engine_idx"));
  fd_tid_used_ = dwarf::FieldAccessor<std::uint64_t>(*fd->field("tid_used"));
  cd_expected_count_ = dwarf::FieldAccessor<std::uint32_t>(*cd->field("expected_count"));
  eng_image_size_ = eng->byte_size;
  fd_image_size_ = fd->byte_size;
  cd_image_size_ = cd->byte_size;
}

sim::Task<Result<long>> HfiPicoDriver::fast_writev(os::OpenFile& f,
                                                   std::span<const os::IoVec> iov) {
  ++fast_writevs_;
  const os::Config& cfg = mck_.config();
  if (f.driver_ctx == nullptr || iov.size() < 2) co_return Errno::einval;
  auto* hdr = reinterpret_cast<hfi::SdmaReqHeader*>(iov[0].base);
  if (hdr == nullptr) co_return Errno::efault;

  // Scheduler-tick housekeeping piggybacked on fast-path entry: reclaim
  // blocks the Linux IRQ side queued for our cores (straight back onto the
  // per-core slab magazines).
  piggyback_drain();

  os::Process& proc = *f.proc;
  mem::AddressSpace& as = proc.as();

  // Engine and per-file state via extracted offsets only (unified direct
  // map: the LWK dereferences the Linux kmalloc'd images).
  auto fd_bytes = image(driver_.filedata_image(f), fd_image_size_);
  if (fd_bytes.empty()) co_return Errno::einval;
  const int engine_id = static_cast<int>(fd_engine_idx_.read(fd_bytes.data()));
  auto eng_bytes = image(driver_.sdma_engine_image(engine_id), eng_image_size_);
  if (eng_bytes.empty()) co_return Errno::einval;
  if (static_cast<hfi::SdmaStates>(state_current_.read(eng_bytes.data())) !=
      hfi::SdmaStates::s99_running) {
    // Engine not running (reset in progress): fall back to the Linux path.
    count_fallback();
    co_return co_await driver_.writev(f, iov);
  }

  // Translation through the per-file extent cache: repeated sends of the
  // same pinned buffer skip the page-table walk; only cold ranges are
  // walked. Descriptors build into an arena-pooled buffer.
  mem::ExtentCache& cache = extent_cache_for(f);
  std::vector<hw::SdmaDescriptor> descs = desc_arena_.take();
  // Every iov range looked up so far stays pinned in the cache until this
  // call finishes (including every error/fallback exit): an in-flight
  // rendezvous window must never be the victim of a concurrent send's
  // eviction while its extents are being wired into descriptors.
  std::size_t pinned_upto = 0;
  auto unpin_all = [&] {
    for (std::size_t i = 1; i <= pinned_upto; ++i)
      cache.unpin(iov[i].base, iov[i].len, cfg.pico_sdma_desc_bytes);
    pinned_upto = 0;
  };
  auto bail = [&](Errno err) {
    unpin_all();
    desc_arena_.recycle(std::move(descs));
    return err;
  };
  std::uint64_t total_bytes = 0;
  std::uint64_t walked_pages = 0;
  std::uint64_t cached_ranges = 0;
  for (std::size_t i = 1; i < iov.size(); ++i) {
    const mem::Vma* vma = as.find_vma(iov[i].base);
    if (vma == nullptr || !vma->pinned) co_return bail(Errno::efault);
    mem::ExtentCache::Outcome outcome;
    auto extents = cache.lookup(as, iov[i].base, iov[i].len, cfg.pico_sdma_desc_bytes, &outcome);
    if (!extents.ok()) co_return bail(extents.error());
    (void)cache.pin(iov[i].base, iov[i].len, cfg.pico_sdma_desc_bytes);
    pinned_upto = i;
    note_cache_outcome(outcome);
    if (outcome == mem::ExtentCache::Outcome::hit)
      ++cached_ranges;
    else
      walked_pages += mem::page_ceil(iov[i].len, mem::kPage4K) / mem::kPage4K;
    // The span is only valid until the next lookup — consume it right away.
    for (const auto& e : *extents)
      descs.push_back(hw::SdmaDescriptor{e.pa, static_cast<std::uint32_t>(e.len)});
    total_bytes += iov[i].len;
  }
  if (descs.empty()) co_return bail(Errno::einval);
  co_await mck_.engine().delay(static_cast<Dur>(walked_pages) * cfg.ptw_per_page +
                               static_cast<Dur>(cached_ranges) * cfg.pico_extent_cache_hit +
                               cfg.sdma_submit_base +
                               static_cast<Dur>(descs.size()) * cfg.sdma_submit_per_desc);

  // Submission critical section under the driver's own per-engine
  // spin-lock — the §3.3 cross-kernel lock, literally shared with the
  // Linux path (ABI compatibility was checked at bind time).
  os::SharedSpinlock& lock = driver_.engine_lock(engine_id);
  co_await lock.acquire();
  hw::SdmaEngine& engine = driver_.device().engine(engine_id);

  // Ring backpressure: bounded exponential backoff instead of an unbounded
  // poll loop under the shared lock. If the ring stays full past the last
  // attempt, give the lock back and take the Linux path — the proxy-side
  // driver already knows how to wait without starving the other kernel.
  int attempt = 0;
  while (engine.ring_free() < descs.size()) {
    if (attempt >= cfg.pico_ring_backoff_attempts) {
      lock.release();
      count_ring_full_fallback();
      unpin_all();
      desc_arena_.recycle(std::move(descs));
      co_return co_await driver_.writev(f, iov);
    }
    Dur backoff = cfg.pico_ring_backoff_base * (Dur{1} << std::min(attempt, 20));
    if (cfg.pico_ring_backoff_cap > 0) backoff = std::min(backoff, cfg.pico_ring_backoff_cap);
    co_await mck_.engine().delay(backoff);
    ++attempt;
  }

  // Completion metadata in the *LWK* heap, owned by this rank's core: in
  // steady state an O(1) pop off the core's slab magazine.
  auto meta = mck_.kheap().kmalloc(192, lwk_cpu_for(proc));
  if (!meta.ok()) {
    lock.release();
    co_return bail(Errno::enomem);
  }

  // Cross-kernel shared state: bump the same descq_submitted counter the
  // Linux driver maintains, through the extracted offset.
  eng_descq_submitted_.write(eng_bytes.data(),
                             eng_descq_submitted_.read(eng_bytes.data()) + descs.size());

  hw::SdmaRequest req;
  req.descriptors = std::move(descs);
  req.header = hdr->wire;
  req.header.payload_bytes = total_bytes;
  // Arena hook: the engine returns the descriptor storage once consumed.
  req.recycle_descriptors = [this](std::vector<hw::SdmaDescriptor>&& buf) {
    desc_arena_.recycle(std::move(buf));
  };

  // The duplicated completion callback (§3.3): lives in McKernel TEXT,
  // executes on a Linux CPU, and its deallocation routine is McKernel's —
  // kfree from a foreign CPU goes to the remote-free queue.
  auto user_done = hdr->on_complete;
  os::LinuxKernel* lnx = &driver_.linux_kernel();
  os::KernelCallback cleanup = remote_free_cleanup(*meta);
  os::KernelCallback notify = binding_.lwk_callback(user_done);
  req.on_complete = [lnx, cleanup = std::move(cleanup), notify = std::move(notify)]() {
    lnx->raise_irq({cleanup, notify});
  };

  Status s = engine.submit(std::move(req));
  assert(s.ok());
  (void)s;
  lock.release();
  unpin_all();
  co_return static_cast<long>(total_bytes);
}

sim::Task<Result<long>> HfiPicoDriver::fast_ioctl(os::OpenFile& f, unsigned long cmd,
                                                  void* arg) {
  const os::Config& cfg = mck_.config();
  if (f.driver_ctx == nullptr) co_return Errno::einval;
  mem::AddressSpace& as = f.proc->as();

  switch (cmd) {
    case hfi::kTidUpdate: {
      ++fast_tid_updates_;
      auto* args = static_cast<hfi::TidUpdateArgs*>(arg);
      if (args == nullptr) co_return Errno::einval;
      args->tids.clear();  // out: this call's TIDs only, as on the Linux path
      if (args->length == 0) co_return Errno::einval;
      const mem::Vma* vma = as.find_vma(args->vaddr);
      if (vma == nullptr || !vma->pinned) co_return Errno::efault;

      // Contiguity-aware registration: one RcvArray entry per physically
      // contiguous extent (up to 2 MiB), instead of one per 4 KiB page.
      // Re-registrations of the same pinned window hit the extent cache
      // and skip the walk entirely (the TID-cache amortization).
      mem::ExtentCache::Outcome outcome;
      auto cached = extent_cache_for(f).lookup(as, args->vaddr, args->length,
                                               mem::kPage2M, &outcome);
      if (!cached.ok()) co_return cached.error();
      note_cache_outcome(outcome);
      // The cached span only lives until the next lookup, and this path
      // suspends below — copy the few extents out (registration is not the
      // per-send hot path; the walk, not this copy, is what the cache saves).
      const std::vector<mem::PhysExtent> extents(cached->begin(), cached->end());
      const Dur translate_cost =
          outcome == mem::ExtentCache::Outcome::hit
              ? cfg.pico_extent_cache_hit
              : static_cast<Dur>(mem::page_ceil(args->length, mem::kPage4K) / mem::kPage4K) *
                    cfg.ptw_per_page;
      co_await mck_.engine().delay(translate_cost);

      auto fd_bytes = image(driver_.filedata_image(f), fd_image_size_);
      auto cd_bytes = image(driver_.ctxtdata_image(f), cd_image_size_);
      if (fd_bytes.empty() || cd_bytes.empty()) co_return Errno::einval;
      const std::uint64_t quota = cd_expected_count_.read(cd_bytes.data());
      if (extents.size() > quota) co_return Errno::enospc;
      // Same per-tenant reclamation policy as the Linux path: at quota the
      // context recycles its own LRU registrations (shared FileCtx
      // bookkeeping, so fast- and slow-path entries age in one list) and
      // never reaches into a neighbour context's RcvArray share.
      while (fd_tid_used_.read(fd_bytes.data()) + extents.size() > quota) {
        if (!cfg.hfi_tid_quota_evict) co_return Errno::enospc;
        co_await mck_.engine().delay(cfg.tid_program_per_entry);
        if (!driver_.evict_lru_tid(f).ok()) co_return Errno::enospc;
        mck_.profiler().bump("pico.tid.quota_evict");
      }

      co_await mck_.engine().delay(cfg.tid_program_base +
                                   static_cast<Dur>(extents.size()) *
                                       cfg.tid_program_per_entry);
      for (const auto& e : extents) {
        auto tid = driver_.device().rcv_array().program(f.ctxt, e.pa, e.len);
        if (!tid.ok()) {
          for (const std::uint32_t t : args->tids) {
            (void)driver_.device().rcv_array().unprogram(f.ctxt, t);
            (void)driver_.release_tid(f, t);
          }
          args->tids.clear();
          co_return tid.error();
        }
        args->tids.push_back(*tid);
        // LWK memory is already pinned: the record holds no frame, so the
        // shared TID bookkeeping (and TID_FREE) stays symmetric.
        driver_.record_tid(f, *tid);
      }
      fd_tid_used_.write(fd_bytes.data(),
                         fd_tid_used_.read(fd_bytes.data()) + extents.size());
      co_return static_cast<long>(args->tids.size());
    }

    case hfi::kTidFree: {
      ++fast_tid_frees_;
      auto* args = static_cast<hfi::TidFreeArgs*>(arg);
      if (args == nullptr) co_return Errno::einval;
      co_await mck_.engine().delay(cfg.tid_program_base / 2 +
                                   static_cast<Dur>(args->tids.size()) *
                                       cfg.tid_program_per_entry / 2);
      auto fd_bytes = image(driver_.filedata_image(f), fd_image_size_);
      if (fd_bytes.empty()) co_return Errno::einval;
      // Stop at the first TID that cannot be unprogrammed, but account for
      // every one released before it (the Linux path's semantics).
      std::uint64_t released = 0;
      bool failed = false;
      for (const std::uint32_t tid : args->tids) {
        if (!driver_.device().rcv_array().unprogram(f.ctxt, tid).ok()) {
          failed = true;
          break;
        }
        (void)driver_.release_tid(f, tid);
        ++released;
      }
      fd_tid_used_.write(fd_bytes.data(), fd_tid_used_.read(fd_bytes.data()) - released);
      if (failed) co_return Errno::einval;
      co_return 0L;
    }

    case hfi::kTidInvalRead:
      co_await mck_.engine().delay(cfg.driver_poll_cost / 2);
      co_return 0L;

    default:
      // Not a fast-path command; McKernel should not have routed it here.
      count_fallback();
      co_return Errno::einval;
  }
}

}  // namespace pd::pico
