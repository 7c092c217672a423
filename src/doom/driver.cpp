#include "src/doom/driver.hpp"

#include <algorithm>
#include <cassert>

#include "src/common/log.hpp"

namespace pd::doom {

using namespace pd::time_literals;

namespace {
// dva 0 means "unmapped" in the uapi; start the allocator one page in.
constexpr std::uint64_t kDvaBase = mem::kPage4K;
}  // namespace

DoomDriver::DoomDriver(os::LinuxKernel& linux_kernel, hw::DoomDevice& device,
                       const std::string& version)
    : linux_(linux_kernel),
      device_(device),
      layouts_(*dwarf::LayoutTable::for_version(layout_spec(), version)),
      module_(layouts_.ship_module()) {
  const dwarf::StructDef* dev_def = layouts_.structure("doom_devdata");
  assert(dev_def != nullptr);
  auto addr = linux_.kheap().kmalloc(dev_def->byte_size, alloc_cpu());
  assert(addr.ok());
  devdata_ = *addr;
  dwarf::StructImage dev = image(devdata_, "doom_devdata");
  dev.write<std::uint32_t>("dev_idx", 0);
  dev.write<std::uint32_t>("ring_slots", device_.config().ring_slots);
  dev.write<std::uint64_t>("cmds_submitted", 0);
  dev.write<std::uint64_t>("fence_seq", 0);
  dwarf::StructImage ring = ring_image();
  ring.write<std::uint32_t>("run_state", static_cast<std::uint32_t>(DoomRunState::running));
  ring.write<std::uint32_t>("error_flags", 0);

  ring_lock_ = std::make_unique<os::SharedSpinlock>(linux_.engine(), linux_.spinlock_abi(),
                                                    linux_.config().pico_lock_acquire);
  device_.set_completion_handler([this](std::uint64_t seq) { on_fence_retired(seq); });
  linux_.register_device(*this);
}

DoomDriver::~DoomDriver() = default;

dwarf::StructImage DoomDriver::image(mem::PhysAddr addr, const char* struct_name) const {
  return layouts_.image(linux_.kheap().data(addr), struct_name);
}

dwarf::StructImage DoomDriver::ring_image() const {
  return image(devdata_, "doom_devdata").member("ring", *layouts_.structure("doom_ringstate"));
}

mem::PhysAddr DoomDriver::ctx_image(const os::OpenFile& f) const { return fctx(f)->ctxdata; }

mem::VirtAddr DoomDriver::completion_callback_text() const {
  return linux_.layout().image.start + 0x5'3000;  // somewhere in Linux TEXT
}

std::uint64_t DoomDriver::alloc_dva(dwarf::StructImage& ctx_img, std::uint64_t bytes) {
  const std::uint64_t cur = ctx_img.read<std::uint64_t>("dva_next");
  ctx_img.write<std::uint64_t>("dva_next", cur + mem::page_ceil(bytes, mem::kPage4K));
  return cur;
}

void DoomDriver::note_device_fault() {
  if (!device_.faulted()) return;
  dwarf::StructImage ring = ring_image();
  if (ring.read<std::uint32_t>("run_state") ==
      static_cast<std::uint32_t>(DoomRunState::error))
    return;
  ring.write<std::uint32_t>("run_state", static_cast<std::uint32_t>(DoomRunState::error));
  ring.write<std::uint32_t>("error_flags", 1);
  linux_.profiler().bump("doom.device.fault");
}

sim::Task<Result<long>> DoomDriver::open(os::OpenFile& f) {
  co_await linux_.engine().delay(linux_.config().driver_open_cost);
  if (f.ctxt < 0) co_return Errno::einval;
  if (device_.context_open(f.ctxt)) co_return Errno::ebusy;

  auto ctxdata = linux_.kheap().kmalloc(layouts_.structure("doom_ctx")->byte_size, alloc_cpu());
  if (!ctxdata.ok()) co_return Errno::enomem;

  auto* ctx = new FileCtx;
  ctx->ctxdata = *ctxdata;
  f.driver_ctx = ctx;
  f.driver_ctx_dtor = [](void* p) { delete static_cast<FileCtx*>(p); };

  dwarf::StructImage img = image(*ctxdata, "doom_ctx");
  img.write<std::uint32_t>("ctx_id", static_cast<std::uint32_t>(f.ctxt));
  img.write<std::uint32_t>("pt_capacity", device_.config().pt_entries_per_ctx);
  img.write<std::uint64_t>("pt_used", 0);
  img.write<std::uint64_t>("batches_submitted", 0);
  img.write<std::uint64_t>("dva_next", kDvaBase);
  co_return 0L;
}

sim::Task<Result<long>> DoomDriver::submit_batch(os::OpenFile& f, DoomSubmitArgs& args) {
  ++submit_batches_;
  FileCtx* ctx = fctx(f);
  if (ctx == nullptr) co_return Errno::einval;
  if (ctx->hw_ctxt < 0) co_return Errno::enodev;
  if (args.cmds.empty()) co_return Errno::einval;
  const os::Config& cfg = linux_.config();
  mem::AddressSpace& as = f.proc->as();

  note_device_fault();
  if (ring_image().read<std::uint32_t>("run_state") !=
      static_cast<std::uint32_t>(DoomRunState::running))
    co_return Errno::eio;

  // Pin every source buffer with get_user_pages — pay per 4 KiB page, like
  // the Linux driver (no page-table walk shortcut, no contiguity).
  std::uint64_t total_pages = 0;
  for (const DoomUserCmd& c : args.cmds) {
    if (c.bytes == 0) co_return Errno::einval;
    if (c.src_va == 0 && c.dva == 0) co_return Errno::einval;
    if (c.src_va != 0) {
      if (!mem::user_range_ok(c.src_va, c.bytes)) co_return Errno::efault;
      total_pages += mem::page_ceil(c.src_va + c.bytes, mem::kPage4K) / mem::kPage4K -
                     mem::page_floor(c.src_va, mem::kPage4K) / mem::kPage4K;
    }
  }
  co_await linux_.engine().delay(static_cast<Dur>(total_pages) * cfg.gup_per_page);

  dwarf::StructImage ctx_img = image(ctx->ctxdata, "doom_ctx");
  std::vector<hw::DoomCommand> cmds;
  std::vector<mem::PinnedPages> pins;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> transient;  // dva window, len
  auto unwind = [&](Errno err) {
    for (auto& p : pins) as.put_user_pages(p);
    for (const auto& [dva, len] : transient)
      (void)device_.unmap_range(ctx->hw_ctxt, dva, len);
    return err;
  };

  std::uint64_t transient_entries = 0;
  for (const DoomUserCmd& c : args.cmds) {
    if (c.src_va == 0) {
      // Pre-mapped window (kDoomMapBuffer): reference it directly.
      cmds.push_back(hw::DoomCommand{static_cast<hw::DoomOp>(c.op), ctx->hw_ctxt,
                                     c.dva, c.bytes, 0});
      continue;
    }
    auto pinned = as.get_user_pages(c.src_va, c.bytes);
    if (!pinned.ok()) co_return unwind(pinned.error());
    const std::uint64_t off = c.src_va & (mem::kPage4K - 1);
    const std::uint64_t window = alloc_dva(ctx_img, off + c.bytes);
    // One PTE per 4 KiB frame — the Linux driver's page-at-a-time blindness.
    co_await linux_.engine().delay(static_cast<Dur>(pinned->frames.size()) *
                                   cfg.doom_pte_program);
    std::uint64_t cursor = window;
    for (const mem::PhysAddr frame : pinned->frames) {
      Status s = device_.map_pte(ctx->hw_ctxt, cursor, frame, mem::kPage4K);
      if (!s.ok()) {
        transient.emplace_back(window, cursor - window);
        pins.push_back(std::move(*pinned));
        co_return unwind(s.error() == Errno::enospc ? Errno::enospc : Errno::efault);
      }
      cursor += mem::kPage4K;
      ++pte_programs_;
      ++transient_entries;
    }
    transient.emplace_back(window, cursor - window);
    pins.push_back(std::move(*pinned));
    cmds.push_back(hw::DoomCommand{static_cast<hw::DoomOp>(c.op), ctx->hw_ctxt,
                                   window + off, c.bytes, 0});
  }
  ctx_img.write<std::uint64_t>("pt_used",
                               ctx_img.read<std::uint64_t>("pt_used") + transient_entries);
  ctx_img.write<std::uint64_t>("batches_submitted",
                               ctx_img.read<std::uint64_t>("batches_submitted") + 1);

  co_await linux_.engine().delay(cfg.doom_submit_base +
                                 static_cast<Dur>(cmds.size()) * cfg.doom_cmd_build);

  // Completion metadata in the Linux heap on this (native/proxy) path.
  auto meta = linux_.kheap().kmalloc(192, alloc_cpu());
  if (!meta.ok()) co_return unwind(Errno::enomem);

  // Ring reservation under the shared submission lock: N commands + fence.
  os::SharedSpinlock& lock = ring_lock();
  co_await lock.acquire();
  while (device_.ring_free() < cmds.size() + 1)
    co_await linux_.engine().delay(500_ns);  // ring-full backoff

  dwarf::StructImage dev = image(devdata_, "doom_devdata");
  const std::uint64_t fence = dev.read<std::uint64_t>("fence_seq") + 1;
  dev.write<std::uint64_t>("fence_seq", fence);
  dev.write<std::uint64_t>("cmds_submitted",
                           dev.read<std::uint64_t>("cmds_submitted") + cmds.size());

  for (const hw::DoomCommand& c : cmds) {
    Status s = device_.push(c);
    assert(s.ok());
    (void)s;
  }
  Status s = device_.push(hw::DoomCommand{hw::DoomOp::fence, ctx->hw_ctxt, 0, 0, fence});
  assert(s.ok());
  (void)s;
  co_await linux_.engine().delay(device_.config().doorbell_cost);
  device_.doorbell();
  lock.release();

  // The fence's completion chain: driver cleanup (unpin, tear down the
  // batch's transient PTEs, kfree the metadata — all Linux-side), then the
  // user notification.
  auto* self = this;
  mem::AddressSpace* asp = &as;
  const mem::PhysAddr meta_addr = *meta;
  const mem::PhysAddr ctxdata_addr = ctx->ctxdata;
  const int hw_ctxt = ctx->hw_ctxt;
  std::vector<os::KernelCallback> chain;
  chain.push_back(os::KernelCallback{
      completion_callback_text(),
      [self, asp, pins_moved = std::move(pins), transient_moved = std::move(transient),
       transient_entries, ctxdata_addr, hw_ctxt, meta_addr] {
        for (const auto& p : pins_moved) asp->put_user_pages(p);
        for (const auto& [dva, len] : transient_moved)
          (void)self->device_.unmap_range(hw_ctxt, dva, len);
        dwarf::StructImage img = self->image(ctxdata_addr, "doom_ctx");
        img.write<std::uint64_t>("pt_used",
                                 img.read<std::uint64_t>("pt_used") - transient_entries);
        (void)self->linux_.kheap().kfree(meta_addr, self->alloc_cpu());
      }});
  if (args.on_fence)
    chain.push_back(os::KernelCallback{completion_callback_text(), args.on_fence});
  register_completion(fence, std::move(chain));

  args.fence_seq = fence;
  co_return static_cast<long>(cmds.size());
}

sim::Task<Result<long>> DoomDriver::wait_fence(os::OpenFile& f, std::uint64_t seq) {
  (void)f;
  if (seq == 0) co_return Errno::einval;
  const os::Config& cfg = linux_.config();
  {
    dwarf::StructImage dev = image(devdata_, "doom_devdata");
    if (seq > dev.read<std::uint64_t>("fence_seq")) co_return Errno::einval;
  }
  Dur since_check = 0;
  while (completed_upto_ < seq) {
    co_await linux_.engine().delay(cfg.doom_fence_poll);
    since_check += cfg.doom_fence_poll;
    note_device_fault();
    if (completed_upto_ >= seq) break;
    if (since_check >= cfg.doom_fence_irq_timeout) {
      since_check = 0;
      // The IRQ may have been lost: the retire register is the truth.
      if (device_.last_retired_seq() >= seq) (void)recover_completions();
    }
  }
  co_return 0L;
}

void DoomDriver::register_completion(std::uint64_t seq,
                                     std::vector<os::KernelCallback> callbacks) {
  pending_.emplace(seq, std::move(callbacks));
}

void DoomDriver::on_fence_retired(std::uint64_t seq) { (void)dispatch_upto(seq, false); }

std::uint64_t DoomDriver::recover_completions() {
  const std::uint64_t n = dispatch_upto(device_.last_retired_seq(), true);
  irqs_recovered_ += n;
  return n;
}

std::uint64_t DoomDriver::dispatch_upto(std::uint64_t seq, bool recovered) {
  std::uint64_t dispatched = 0;
  while (!pending_.empty() && pending_.begin()->first <= seq) {
    auto it = pending_.begin();
    completed_upto_ = std::max(completed_upto_, it->first);
    std::vector<os::KernelCallback> chain = std::move(it->second);
    pending_.erase(it);
    // Recovery still routes through raise_irq: the poll noticed, the bottom
    // half does the work (so text-visibility checks apply either way).
    linux_.raise_irq(std::move(chain));
    ++fences_dispatched_;
    ++dispatched;
    if (recovered) linux_.profiler().bump("doom.irq.recovered");
  }
  return dispatched;
}

sim::Task<Result<long>> DoomDriver::ioctl(os::OpenFile& f, unsigned long cmd, void* arg) {
  FileCtx* ctx = fctx(f);
  if (ctx == nullptr) co_return Errno::einval;
  const os::Config& cfg = linux_.config();

  switch (cmd) {
    case kDoomCreateCtx: {
      if (ctx->hw_ctxt >= 0) co_return Errno::ebusy;
      co_await linux_.engine().delay(from_us(5.0));
      Status s = device_.create_context(f.ctxt);
      if (!s.ok()) co_return s.error();
      ctx->hw_ctxt = f.ctxt;
      co_return 0L;
    }

    case kDoomMapBuffer: {
      auto* args = static_cast<DoomMapBufferArgs*>(arg);
      if (args == nullptr || args->len == 0) co_return Errno::einval;
      if (ctx->hw_ctxt < 0) co_return Errno::enodev;
      if (!mem::user_range_ok(args->va, args->len)) co_return Errno::efault;
      mem::AddressSpace& as = f.proc->as();
      const std::uint64_t pages =
          mem::page_ceil(args->va + args->len, mem::kPage4K) / mem::kPage4K -
          mem::page_floor(args->va, mem::kPage4K) / mem::kPage4K;
      co_await linux_.engine().delay(static_cast<Dur>(pages) * cfg.gup_per_page +
                                     static_cast<Dur>(pages) * cfg.doom_pte_program);
      auto pinned = as.get_user_pages(args->va, args->len);
      if (!pinned.ok()) co_return pinned.error();

      dwarf::StructImage ctx_img = image(ctx->ctxdata, "doom_ctx");
      const std::uint64_t off = args->va & (mem::kPage4K - 1);
      const std::uint64_t window = alloc_dva(ctx_img, off + args->len);
      std::uint64_t cursor = window;
      for (const mem::PhysAddr frame : pinned->frames) {
        Status s = device_.map_pte(ctx->hw_ctxt, cursor, frame, mem::kPage4K);
        if (!s.ok()) {
          (void)device_.unmap_range(ctx->hw_ctxt, window, cursor - window);
          as.put_user_pages(*pinned);
          co_return s.error();
        }
        cursor += mem::kPage4K;
        ++pte_programs_;
      }
      ctx_img.write<std::uint64_t>("pt_used",
                                   ctx_img.read<std::uint64_t>("pt_used") + pages);
      ctx->persistent_pins.push_back(std::move(*pinned));
      args->dva = window + off;
      co_return static_cast<long>(pages);
    }

    case kDoomSubmitBatch: {
      auto* args = static_cast<DoomSubmitArgs*>(arg);
      if (args == nullptr) co_return Errno::einval;
      co_return co_await submit_batch(f, *args);
    }

    case kDoomWaitFence: {
      auto* args = static_cast<DoomWaitFenceArgs*>(arg);
      if (args == nullptr) co_return Errno::einval;
      co_return co_await wait_fence(f, args->seq);
    }

    case kDoomResetError: {
      co_await linux_.engine().delay(from_us(3.0));
      device_.reset_error();
      dwarf::StructImage ring = ring_image();
      ring.write<std::uint32_t>("run_state",
                                static_cast<std::uint32_t>(DoomRunState::running));
      ring.write<std::uint32_t>("error_flags", 0);
      co_return 0L;
    }

    case kDoomInfo:
      co_await linux_.engine().delay(from_us(1.0));
      co_return 0L;

    default:
      co_return Errno::einval;
  }
}

sim::Task<Result<long>> DoomDriver::close(os::OpenFile& f) {
  FileCtx* ctx = fctx(f);
  if (ctx == nullptr) co_return Errno::einval;
  co_await linux_.engine().delay(from_us(8.0));
  mem::AddressSpace& as = f.proc->as();
  for (auto& p : ctx->persistent_pins) as.put_user_pages(p);
  if (ctx->hw_ctxt >= 0) (void)device_.destroy_context(ctx->hw_ctxt);
  (void)linux_.kheap().kfree(ctx->ctxdata, alloc_cpu());
  delete ctx;
  f.driver_ctx = nullptr;
  co_return 0L;
}

}  // namespace pd::doom
