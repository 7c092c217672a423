#include "src/pico/doom_picodriver.hpp"

#include <algorithm>
#include <cassert>

#include "src/common/log.hpp"

namespace pd::pico {

using namespace pd::time_literals;

Result<std::unique_ptr<DoomPicoDriver>> DoomPicoDriver::create(os::McKernel& mck,
                                                               doom::DoomDriver& driver) {
  // The structures and fields the fast path touches — nothing more.
  const std::vector<StructRequest> requests = {
      {"doom_devdata", {"fence_seq", "cmds_submitted", "ring"}},
      {"doom_ringstate", {"run_state", "error_flags"}},
      {"doom_ctx", {"ctx_id", "pt_used", "dva_next", "batches_submitted"}},
  };
  auto binding = bind_checked(mck, driver.linux_kernel(), driver.module_binary(),
                              requests, &driver.ring_lock());
  if (!binding.ok()) return binding.error();

  auto pico = std::unique_ptr<DoomPicoDriver>(
      new DoomPicoDriver(std::move(*binding), mck, driver));
  if (!pico->fields_bound()) return Errno::einval;

  os::FastPathOps ops;
  DoomPicoDriver* raw = pico.get();
  ops.ioctl = [raw](os::OpenFile& f, unsigned long cmd, void* arg) {
    return raw->fast_ioctl(f, cmd, arg);
  };
  ops.ioctl_handles = [](unsigned long cmd) { return doom::is_submit_cmd(cmd); };
  raw->install(driver, std::move(ops));
  return pico;
}

DoomPicoDriver::DoomPicoDriver(PicoBinding binding, os::McKernel& mck,
                               doom::DoomDriver& driver)
    : FastPathPort(std::move(binding), mck), driver_(driver) {
  const dwarf::StructLayout* dev = binding_.layout("doom_devdata");
  const dwarf::StructLayout* ring = binding_.layout("doom_ringstate");
  const dwarf::StructLayout* ctx = binding_.layout("doom_ctx");
  assert(dev && ring && ctx);
  dev_fence_seq_ = dwarf::FieldAccessor<std::uint64_t>(*dev->field("fence_seq"));
  dev_cmds_submitted_ = dwarf::FieldAccessor<std::uint64_t>(*dev->field("cmds_submitted"));
  ring_run_state_ =
      dwarf::FieldAccessor<std::uint32_t>(*dev->field("ring"), *ring, *ring->field("run_state"));
  ctx_pt_used_ = dwarf::FieldAccessor<std::uint64_t>(*ctx->field("pt_used"));
  ctx_dva_next_ = dwarf::FieldAccessor<std::uint64_t>(*ctx->field("dva_next"));
  ctx_batches_submitted_ =
      dwarf::FieldAccessor<std::uint64_t>(*ctx->field("batches_submitted"));
  dev_image_size_ = dev->byte_size;
  ctx_image_size_ = ctx->byte_size;
}

sim::Task<Result<long>> DoomPicoDriver::fast_ioctl(os::OpenFile& f, unsigned long cmd,
                                                   void* arg) {
  if (!doom::is_submit_cmd(cmd)) {
    // Not a fast-path command; McKernel should not have routed it here.
    count_fallback();
    co_return Errno::einval;
  }
  auto* args = static_cast<doom::DoomSubmitArgs*>(arg);
  if (args == nullptr) co_return Errno::einval;
  co_return co_await fast_submit(f, *args);
}

sim::Task<Result<long>> DoomPicoDriver::fast_submit(os::OpenFile& f,
                                                    doom::DoomSubmitArgs& args) {
  ++fast_submits_;
  const os::Config& cfg = mck_.config();
  if (f.driver_ctx == nullptr || args.cmds.empty()) co_return Errno::einval;
  if (!driver_.device().context_open(f.ctxt)) co_return Errno::enodev;

  // Scheduler-tick housekeeping piggybacked on fast-path entry.
  piggyback_drain();

  // Unified direct map: the LWK dereferences the Linux kmalloc'd images.
  auto dev_bytes = image(driver_.devdata_image(), dev_image_size_);
  auto ctx_bytes = image(driver_.ctx_image(f), ctx_image_size_);
  if (dev_bytes.empty() || ctx_bytes.empty()) co_return Errno::einval;
  if (static_cast<doom::DoomRunState>(ring_run_state_.read(dev_bytes.data())) !=
      doom::DoomRunState::running) {
    // Device parked (fault or reset in progress): the Linux path owns the
    // error protocol — fall back and let it return EIO / recover.
    count_fallback();
    co_return co_await driver_.ioctl(f, doom::kDoomSubmitBatch, &args);
  }

  os::Process& proc = *f.proc;
  mem::AddressSpace& as = proc.as();
  hw::DoomDevice& device = driver_.device();
  const std::uint64_t max_pte = device.config().max_pte_bytes;

  // Translate each source buffer through the per-file extent cache and
  // program one PTE per physically contiguous extent — the §3.4 win over
  // the slow path's one-PTE-per-4K-page blindness. Transient windows come
  // from the same dva_next cursor the Linux driver uses (an image field,
  // so the allocators can never collide).
  mem::ExtentCache& cache = extent_cache_for(f);
  std::vector<hw::DoomCommand> cmds = cmd_arena_.take();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> transient;  // dva window, len
  std::uint64_t transient_entries = 0;
  std::size_t pinned_upto = 0;
  auto unpin_all = [&] {
    for (std::size_t i = 0; i < pinned_upto; ++i) {
      const doom::DoomUserCmd& c = args.cmds[i];
      if (c.src_va != 0) cache.unpin(c.src_va, c.bytes, max_pte);
    }
    pinned_upto = 0;
  };
  auto unwind_ptes = [&] {
    for (const auto& [dva, len] : transient)
      (void)device.unmap_range(f.ctxt, dva, len);
    transient.clear();
    transient_entries = 0;
  };
  auto bail = [&](Errno err) {
    unpin_all();
    unwind_ptes();
    cmd_arena_.recycle(std::move(cmds));
    return err;
  };

  std::uint64_t walked_pages = 0;
  std::uint64_t cached_ranges = 0;
  for (std::size_t i = 0; i < args.cmds.size(); ++i) {
    const doom::DoomUserCmd& c = args.cmds[i];
    if (c.bytes == 0) co_return bail(Errno::einval);
    if (c.src_va == 0) {
      if (c.dva == 0) co_return bail(Errno::einval);
      // Pre-mapped window (kDoomMapBuffer): reference it directly.
      cmds.push_back(hw::DoomCommand{static_cast<hw::DoomOp>(c.op), f.ctxt,
                                     c.dva, c.bytes, 0});
      pinned_upto = i + 1;
      continue;
    }
    const mem::Vma* vma = as.find_vma(c.src_va);
    if (vma == nullptr || !vma->pinned) co_return bail(Errno::efault);
    mem::ExtentCache::Outcome outcome;
    auto extents = cache.lookup(as, c.src_va, c.bytes, max_pte, &outcome);
    if (!extents.ok()) co_return bail(extents.error());
    (void)cache.pin(c.src_va, c.bytes, max_pte);
    pinned_upto = i + 1;
    note_cache_outcome(outcome);
    if (outcome == mem::ExtentCache::Outcome::hit)
      ++cached_ranges;
    else
      walked_pages += mem::page_ceil(c.bytes, mem::kPage4K) / mem::kPage4K;

    std::uint64_t span = 0;
    for (const auto& e : *extents) span += e.len;
    const std::uint64_t window = ctx_dva_next_.read(ctx_bytes.data());
    ctx_dva_next_.write(ctx_bytes.data(),
                        window + mem::page_ceil(span, mem::kPage4K));
    std::uint64_t cursor = window;
    bool pte_failed = false;
    Errno pte_err = Errno::efault;
    // The span is only valid until the next lookup — consume it right away.
    for (const auto& e : *extents) {
      Status s = device.map_pte(f.ctxt, cursor, e.pa, e.len);
      if (!s.ok()) {
        pte_failed = true;
        pte_err = s.error();
        break;
      }
      cursor += e.len;
      ++extents_programmed_;
      ++transient_entries;
    }
    transient.emplace_back(window, cursor - window);
    if (pte_failed) co_return bail(pte_err);
    // The extents are byte-exact for [src_va, src_va+bytes), so the window
    // base is the command's dva — no intra-page offset to carry.
    cmds.push_back(hw::DoomCommand{static_cast<hw::DoomOp>(c.op), f.ctxt,
                                   window, c.bytes, 0});
  }
  if (cmds.empty()) co_return bail(Errno::einval);

  co_await mck_.engine().delay(
      static_cast<Dur>(walked_pages) * cfg.ptw_per_page +
      static_cast<Dur>(cached_ranges) * cfg.pico_extent_cache_hit +
      static_cast<Dur>(transient_entries) * cfg.doom_pte_program +
      cfg.doom_submit_base + static_cast<Dur>(cmds.size()) * cfg.doom_cmd_build);

  // Ring-slot reservation under the driver's own submission spin-lock — the
  // §3.3 cross-kernel lock, literally shared with the Linux path. Bounded
  // backoff; if the ring stays full, give the lock back and take the Linux
  // ioctl (the proxy-side driver knows how to wait without starving the
  // other kernel).
  os::SharedSpinlock& lock = driver_.ring_lock();
  co_await lock.acquire();
  int attempt = 0;
  while (device.ring_free() < cmds.size() + 1) {
    if (attempt >= cfg.pico_ring_backoff_attempts) {
      lock.release();
      count_ring_full_fallback();
      unpin_all();
      unwind_ptes();
      cmd_arena_.recycle(std::move(cmds));
      co_return co_await driver_.ioctl(f, doom::kDoomSubmitBatch, &args);
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

  // Cross-kernel shared state: the same fence-sequence and submit counters
  // the Linux driver maintains, through extracted offsets.
  const std::uint64_t fence = dev_fence_seq_.read(dev_bytes.data()) + 1;
  dev_fence_seq_.write(dev_bytes.data(), fence);
  dev_cmds_submitted_.write(dev_bytes.data(),
                            dev_cmds_submitted_.read(dev_bytes.data()) + cmds.size());
  ctx_pt_used_.write(ctx_bytes.data(),
                     ctx_pt_used_.read(ctx_bytes.data()) + transient_entries);
  ctx_batches_submitted_.write(ctx_bytes.data(),
                               ctx_batches_submitted_.read(ctx_bytes.data()) + 1);

  for (const hw::DoomCommand& c : cmds) {
    Status s = device.push(c);
    assert(s.ok());
    (void)s;
  }
  Status s = device.push(hw::DoomCommand{hw::DoomOp::fence, f.ctxt, 0, 0, fence});
  assert(s.ok());
  (void)s;
  co_await mck_.engine().delay(device.config().doorbell_cost);
  device.doorbell();
  lock.release();

  // The fence's cleanup callback (§3.3): duplicated LWK TEXT that runs on a
  // Linux IRQ CPU — it tears down this batch's transient PTEs, drops the
  // image's pt_used through the extracted offset, and routes the metadata
  // kfree through the remote-free queue.
  auto* self = this;
  os::McKernel* mck = &mck_;
  os::LinuxKernel* lnx = &driver_.linux_kernel();
  const mem::PhysAddr meta_addr = *meta;
  const mem::PhysAddr ctxdata_addr = driver_.ctx_image(f);
  const int hw_ctxt = f.ctxt;
  std::vector<os::KernelCallback> chain;
  chain.push_back(binding_.lwk_callback(
      [self, mck, lnx, meta_addr, ctxdata_addr, hw_ctxt,
       transient_moved = std::move(transient), transient_entries] {
        for (const auto& [dva, len] : transient_moved)
          (void)self->driver_.device().unmap_range(hw_ctxt, dva, len);
        if (auto bytes = self->image(ctxdata_addr, self->ctx_image_size_); !bytes.empty())
          self->ctx_pt_used_.write(bytes.data(),
                                   self->ctx_pt_used_.read(bytes.data()) - transient_entries);
        Status st = mck->kheap().kfree(meta_addr, lnx->current_irq_cpu());
        assert(st.ok());
        (void)st;
      }));
  if (args.on_fence) chain.push_back(binding_.lwk_callback(args.on_fence));
  driver_.register_completion(fence, std::move(chain));

  args.fence_seq = fence;
  const long submitted = static_cast<long>(cmds.size());
  cmd_arena_.recycle(std::move(cmds));
  unpin_all();
  co_return submitted;
}

}  // namespace pd::pico
