#include "src/hfi/driver.hpp"

#include <algorithm>
#include <cassert>

#include "src/common/log.hpp"

namespace pd::hfi {

using namespace pd::time_literals;

HfiDriver::HfiDriver(os::LinuxKernel& linux_kernel, hw::HfiDevice& device,
                     const std::string& version)
    : linux_(linux_kernel),
      device_(device),
      layouts_(*dwarf::LayoutTable::for_version(layout_spec(), version)),
      module_(layouts_.ship_module()) {
  // Per-engine state images: the fields the fast path will interrogate.
  const dwarf::StructDef* engine_def = layouts_.structure("sdma_engine");
  const dwarf::StructDef* state_def = layouts_.structure("sdma_state");
  assert(engine_def != nullptr && state_def != nullptr);
  for (int i = 0; i < device_.num_engines(); ++i) {
    auto addr = linux_.kheap().kmalloc(engine_def->byte_size, alloc_cpu());
    assert(addr.ok());
    dwarf::StructImage eng = image(*addr, "sdma_engine");
    eng.write<std::uint32_t>("this_idx", static_cast<std::uint32_t>(i));
    eng.write<std::uint32_t>("descq_cnt", device_.config().sdma.ring_slots);
    // Embedded sdma_state: hardware is brought to s99_running at init.
    eng.member("state", *state_def)
        .write<std::uint32_t>("current_state",
                              static_cast<std::uint32_t>(SdmaStates::s99_running));
    engine_images_.push_back(*addr);
    engine_locks_.push_back(std::make_unique<os::SharedSpinlock>(
        linux_.engine(), linux_.spinlock_abi(), linux_.config().pico_lock_acquire));
  }
  // Static partitioning of the RcvArray across the contexts a node can host.
  const std::uint32_t max_ctxts = 64;
  expected_entries_per_ctxt_ = device_.rcv_array().capacity() / max_ctxts;
  linux_.register_device(*this);
}

HfiDriver::~HfiDriver() = default;

int HfiDriver::alloc_cpu() const { return 0; }  // first Linux-owned CPU

dwarf::StructImage HfiDriver::image(mem::PhysAddr addr, const char* struct_name) const {
  return layouts_.image(linux_.kheap().data(addr), struct_name);
}

mem::PhysAddr HfiDriver::sdma_engine_image(int engine_id) const {
  return engine_images_.at(static_cast<std::size_t>(engine_id));
}

mem::PhysAddr HfiDriver::filedata_image(const os::OpenFile& f) const {
  return fctx(f)->filedata;
}

mem::PhysAddr HfiDriver::ctxtdata_image(const os::OpenFile& f) const {
  return fctx(f)->ctxtdata;
}

mem::VirtAddr HfiDriver::completion_callback_text() const {
  return linux_.layout().image.start + 0x4'2000;  // somewhere in Linux TEXT
}

sim::Task<Result<long>> HfiDriver::open(os::OpenFile& f) {
  co_await linux_.engine().delay(linux_.config().driver_open_cost);
  if (f.ctxt < 0) co_return Errno::einval;
  if (device_.context_open(f.ctxt)) co_return Errno::ebusy;

  auto filedata = linux_.kheap().kmalloc(layouts_.structure("hfi1_filedata")->byte_size,
                                         alloc_cpu());
  auto ctxtdata = linux_.kheap().kmalloc(layouts_.structure("hfi1_ctxtdata")->byte_size,
                                         alloc_cpu());
  if (!filedata.ok() || !ctxtdata.ok()) co_return Errno::enomem;

  auto* ctx = new FileCtx;
  ctx->filedata = *filedata;
  ctx->ctxtdata = *ctxtdata;
  ctx->hw_ctxt = f.ctxt;
  f.driver_ctx = ctx;
  f.driver_ctx_dtor = [](void* p) { delete static_cast<FileCtx*>(p); };

  dwarf::StructImage fd_img = image(*filedata, "hfi1_filedata");
  fd_img.write<std::uint32_t>("ctxt", static_cast<std::uint32_t>(f.ctxt));
  fd_img.write<std::uint16_t>("subctxt", 0);
  fd_img.write<std::uint32_t>("sdma_engine_idx",
                              static_cast<std::uint32_t>(device_.pick_engine()));

  dwarf::StructImage cd_img = image(*ctxtdata, "hfi1_ctxtdata");
  cd_img.write<std::uint32_t>("ctxt", static_cast<std::uint32_t>(f.ctxt));
  cd_img.write<std::uint32_t>("expected_base",
                              static_cast<std::uint32_t>(f.ctxt) * expected_entries_per_ctxt_);
  cd_img.write<std::uint32_t>("expected_count", expected_entries_per_ctxt_);

  device_.open_context(f.ctxt);
  co_return 0L;
}

sim::Task<Result<long>> HfiDriver::writev(os::OpenFile& f, std::span<const os::IoVec> iov) {
  ++writev_calls_;
  FileCtx* ctx = fctx(f);
  if (ctx == nullptr || iov.size() < 2) co_return Errno::einval;
  auto* hdr = reinterpret_cast<SdmaReqHeader*>(iov[0].base);
  if (hdr == nullptr) co_return Errno::efault;

  const os::Config& cfg = linux_.config();
  mem::AddressSpace& as = f.proc->as();

  // Pin user pages (get_user_pages) — pay per 4 KiB page.
  std::uint64_t total_bytes = 0;
  std::uint64_t total_pages = 0;
  std::vector<mem::PinnedPages> pins;
  for (std::size_t i = 1; i < iov.size(); ++i) {
    if (!mem::user_range_ok(iov[i].base, iov[i].len)) co_return Errno::efault;
    total_bytes += iov[i].len;
    total_pages += mem::page_ceil(iov[i].base + iov[i].len, mem::kPage4K) / mem::kPage4K -
                   mem::page_floor(iov[i].base, mem::kPage4K) / mem::kPage4K;
  }
  co_await linux_.engine().delay(static_cast<Dur>(total_pages) * cfg.gup_per_page);
  for (std::size_t i = 1; i < iov.size(); ++i) {
    auto pinned = as.get_user_pages(iov[i].base, iov[i].len);
    if (!pinned.ok()) {
      for (auto& p : pins) as.put_user_pages(p);
      co_return pinned.error();
    }
    pins.push_back(std::move(*pinned));
  }

  // Build descriptors: one per page, never beyond PAGE_SIZE (§3.4 — the
  // Linux driver does not coalesce across page boundaries and is blind to
  // large pages).
  std::vector<hw::SdmaDescriptor> descs;
  for (std::size_t i = 1; i < iov.size(); ++i) {
    std::uint64_t remaining = iov[i].len;
    std::uint64_t off_in_first = iov[i].base & (mem::kPage4K - 1);
    for (const mem::PhysAddr frame : pins[i - 1].frames) {
      if (remaining == 0) break;
      const std::uint64_t take =
          std::min<std::uint64_t>(remaining, mem::kPage4K - off_in_first);
      descs.push_back(hw::SdmaDescriptor{frame + off_in_first,
                                         static_cast<std::uint32_t>(take)});
      off_in_first = 0;
      remaining -= take;
    }
  }
  if (descs.empty()) {
    for (auto& p : pins) as.put_user_pages(p);
    co_return Errno::einval;
  }

  // Reserve the file's SDMA engine and submit; wait out ring backpressure.
  dwarf::StructImage fd_img = image(ctx->filedata, "hfi1_filedata");
  const int engine_id = static_cast<int>(fd_img.read<std::uint32_t>("sdma_engine_idx"));
  co_await linux_.engine().delay(cfg.sdma_submit_base +
                                 static_cast<Dur>(descs.size()) * cfg.sdma_submit_per_desc);

  // Completion metadata lives in the Linux heap on this (native/proxy)
  // path; the IRQ-side kfree is local to Linux.
  auto meta = linux_.kheap().kmalloc(192, alloc_cpu());
  if (!meta.ok()) {
    for (auto& p : pins) as.put_user_pages(p);
    co_return Errno::enomem;
  }

  // Submission critical section: the per-engine spin-lock both kernels
  // share (the fast path takes the exact same lock).
  os::SharedSpinlock& lock = engine_lock(engine_id);
  co_await lock.acquire();
  hw::SdmaEngine& engine = device_.engine(engine_id);
  while (engine.ring_free() < descs.size())
    co_await linux_.engine().delay(500_ns);  // ring-full backoff

  dwarf::StructImage eng_img =
      image(engine_images_[static_cast<std::size_t>(engine_id)], "sdma_engine");
  eng_img.write<std::uint64_t>("descq_submitted",
                               eng_img.read<std::uint64_t>("descq_submitted") + descs.size());

  hw::SdmaRequest req;
  req.descriptors = std::move(descs);
  req.header = hdr->wire;
  req.header.payload_bytes = total_bytes;
  // The hardware IRQ fires on a Linux service CPU; the driver's cleanup
  // callback (unpin + kfree) lives in Linux TEXT, the user notification is
  // the completion-queue update PSM polls. The completion runs exactly
  // once, so the pin list is moved into it and on into the IRQ callback.
  auto user_done = hdr->on_complete;
  auto meta_addr = *meta;
  auto* self = this;
  mem::AddressSpace* asp = &as;
  req.on_complete = [self, asp, pins = std::move(pins), meta_addr, user_done]() mutable {
    std::vector<os::KernelCallback> chain;
    chain.push_back(os::KernelCallback{
        self->completion_callback_text(), [self, asp, pins = std::move(pins), meta_addr] {
          for (const auto& p : pins) asp->put_user_pages(p);
          (void)self->linux_.kheap().kfree(meta_addr, self->alloc_cpu());
        }});
    if (user_done)
      chain.push_back(os::KernelCallback{self->completion_callback_text(), user_done});
    self->linux_.raise_irq(std::move(chain));
  };

  Status s = engine.submit(std::move(req));
  assert(s.ok());
  (void)s;
  lock.release();
  co_return static_cast<long>(total_bytes);
}

sim::Task<Result<long>> HfiDriver::ioctl(os::OpenFile& f, unsigned long cmd, void* arg) {
  FileCtx* ctx = fctx(f);
  if (ctx == nullptr) co_return Errno::einval;
  const os::Config& cfg = linux_.config();

  switch (cmd) {
    case kTidUpdate: {
      auto* args = static_cast<TidUpdateArgs*>(arg);
      if (args == nullptr) co_return Errno::einval;
      args->tids.clear();  // out: this call's TIDs only, as hfi1's tidlist/tidcnt
      if (args->length == 0) co_return Errno::einval;
      if (!mem::user_range_ok(args->vaddr, args->length)) co_return Errno::efault;
      mem::AddressSpace& as = f.proc->as();

      const std::uint64_t pages =
          mem::page_ceil(args->vaddr + args->length, mem::kPage4K) / mem::kPage4K -
          mem::page_floor(args->vaddr, mem::kPage4K) / mem::kPage4K;
      co_await linux_.engine().delay(static_cast<Dur>(pages) * cfg.gup_per_page);
      auto pinned = as.get_user_pages(args->vaddr, args->length);
      if (!pinned.ok()) co_return pinned.error();

      // Quota check against the context's RcvArray share. With
      // `hfi_tid_quota_evict` the context reclaims its *own* LRU entries to
      // make room (registration-cache semantics); it can never touch a
      // neighbour context's share, and a request that would not fit even
      // into an empty share still fails outright.
      dwarf::StructImage cd = image(ctx->ctxtdata, "hfi1_ctxtdata");
      dwarf::StructImage fd = image(ctx->filedata, "hfi1_filedata");
      const std::uint64_t quota = cd.read<std::uint32_t>("expected_count");
      if (pages > quota) {
        as.put_user_pages(*pinned);
        co_return Errno::enospc;
      }
      while (fd.read<std::uint64_t>("tid_used") + pages > quota) {
        if (!cfg.hfi_tid_quota_evict || ctx->tids.empty()) {
          as.put_user_pages(*pinned);
          co_return Errno::enospc;
        }
        co_await linux_.engine().delay(cfg.tid_program_per_entry);
        if (!evict_lru_tid(f).ok()) {
          as.put_user_pages(*pinned);
          co_return Errno::enospc;
        }
      }

      // Linux path: one RcvArray entry per 4 KiB page (no contiguity or
      // large-page awareness — the same blindness as the SDMA path).
      co_await linux_.engine().delay(cfg.tid_program_base +
                                     static_cast<Dur>(pages) * cfg.tid_program_per_entry);
      for (const mem::PhysAddr frame : pinned->frames) {
        auto tid = device_.rcv_array().program(ctx->hw_ctxt, frame, mem::kPage4K);
        if (!tid.ok()) {
          // Roll back this call's entries; pins for them move back too.
          for (const std::uint32_t t : args->tids) {
            (void)device_.rcv_array().unprogram(ctx->hw_ctxt, t);
            ctx->tids.erase(t);
          }
          as.put_user_pages(*pinned);
          args->tids.clear();
          co_return tid.error();
        }
        args->tids.push_back(*tid);
        // Ownership of this frame's pin transfers to the TID record; it is
        // released at TID_FREE (or close), not at ioctl return.
        record_tid(f, *tid, frame);
      }
      fd.write<std::uint64_t>("tid_used", fd.read<std::uint64_t>("tid_used") + pages);
      co_return static_cast<long>(args->tids.size());
    }

    case kTidFree: {
      auto* args = static_cast<TidFreeArgs*>(arg);
      if (args == nullptr) co_return Errno::einval;
      co_await linux_.engine().delay(cfg.tid_program_base +
                                     static_cast<Dur>(args->tids.size()) *
                                         cfg.tid_program_per_entry / 2);
      dwarf::StructImage fd = image(ctx->filedata, "hfi1_filedata");
      // As hfi1's user_exp_rcv_clear: stop at the first TID that cannot be
      // unprogrammed, but account for every one released before it.
      std::uint64_t released_pages = 0;
      bool failed = false;
      for (const std::uint32_t tid : args->tids) {
        if (!device_.rcv_array().unprogram(ctx->hw_ctxt, tid).ok()) {
          failed = true;
          break;
        }
        if (release_tid(f, tid)) ++released_pages;
      }
      fd.write<std::uint64_t>("tid_used",
                              fd.read<std::uint64_t>("tid_used") - released_pages);
      if (failed) co_return Errno::einval;
      co_return 0L;
    }

    case kTidInvalRead:
      co_await linux_.engine().delay(cfg.driver_poll_cost);
      co_return 0L;

    // Administrative commands: modeled as short driver work.
    case kCtxtInfo:
    case kUserInfo:
    case kPollType:
    case kAckEvent:
    case kSetPkey:
    case kGetVers:
      co_await linux_.engine().delay(from_us(1.0));
      co_return 0L;
    case kRecvCtrl:
    case kCtxtReset:
      co_await linux_.engine().delay(from_us(3.0));
      co_return 0L;

    default:
      co_return Errno::einval;
  }
}

sim::Task<Result<mem::PhysAddr>> HfiDriver::mmap(os::OpenFile& f, std::uint64_t len,
                                                 std::uint64_t offset) {
  (void)f;
  const auto& hw_cfg = device_.config();
  if (offset + len > hw_cfg.csr_size) co_return Errno::einval;
  co_await linux_.engine().delay(linux_.config().driver_mmap_cost);
  co_return hw_cfg.csr_base + offset;
}

sim::Task<Result<long>> HfiDriver::read(os::OpenFile& f, std::uint64_t len) {
  (void)f;
  co_await linux_.engine().delay(from_us(0.8));
  co_return static_cast<long>(len);
}

sim::Task<Result<long>> HfiDriver::lseek(os::OpenFile& f, long offset, int whence) {
  // The HFI driver uses lseek to select the event/status window that a
  // subsequent read() returns; the model charges the dispatch cost and
  // validates the whence constant.
  (void)f;
  if (whence < 0 || whence > 2 || offset < 0) co_return Errno::einval;
  co_await linux_.engine().delay(from_ns(400));
  co_return offset;
}

sim::Task<Result<long>> HfiDriver::close(os::OpenFile& f) {
  FileCtx* ctx = fctx(f);
  if (ctx == nullptr) co_return Errno::einval;
  co_await linux_.engine().delay(from_us(8.0));
  mem::AddressSpace& as = f.proc->as();
  ctx->tids.for_each([&as](std::uint64_t, const TidRecord& rec) {
    if (rec.frame) as.put_user_page(*rec.frame);
  });
  device_.close_context(ctx->hw_ctxt);
  (void)linux_.kheap().kfree(ctx->filedata, alloc_cpu());
  (void)linux_.kheap().kfree(ctx->ctxtdata, alloc_cpu());
  delete ctx;
  f.driver_ctx = nullptr;
  co_return 0L;
}

void HfiDriver::record_tid(os::OpenFile& f, std::uint32_t tid,
                           std::optional<mem::PhysAddr> frame) {
  FileCtx* ctx = fctx(f);
  ctx->tids[tid] = TidRecord{ctx->next_tid_seq++, frame};
  ++tid_programs_;
}

bool HfiDriver::release_tid(os::OpenFile& f, std::uint32_t tid) {
  FileCtx* ctx = fctx(f);
  const TidRecord* rec = ctx->tids.find(tid);
  if (rec == nullptr) return false;
  const std::optional<mem::PhysAddr> frame = rec->frame;
  ctx->tids.erase(tid);
  if (frame) f.proc->as().put_user_page(*frame);
  return frame.has_value();
}

Status HfiDriver::evict_lru_tid(os::OpenFile& f) {
  FileCtx* ctx = fctx(f);
  if (ctx == nullptr) return Errno::einval;
  if (ctx->tids.empty()) return Errno::enoent;
  // A scan, but eviction only runs with hfi_tid_quota_evict on, and a
  // context holds at most its RcvArray share of records.
  std::uint32_t tid = 0;
  std::uint64_t oldest = ~std::uint64_t{0};
  ctx->tids.for_each([&](std::uint64_t t, const TidRecord& rec) {
    if (rec.seq < oldest) {
      oldest = rec.seq;
      tid = static_cast<std::uint32_t>(t);
    }
  });
  (void)device_.rcv_array().unprogram(ctx->hw_ctxt, tid);
  (void)release_tid(f, tid);
  dwarf::StructImage fd = image(ctx->filedata, "hfi1_filedata");
  fd.write<std::uint64_t>("tid_used", fd.read<std::uint64_t>("tid_used") - 1);
  linux_.profiler().bump("hfi.tid.quota_evict");
  return Status::success();
}

}  // namespace pd::hfi
