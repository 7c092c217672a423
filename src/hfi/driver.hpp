// The simulated Intel HFI1 Linux driver.
//
// This is the "unmodified driver" of the paper: the same object serves
// native Linux syscalls, offloaded McKernel syscalls, and coexists with the
// PicoDriver fast path — it is never specialized per OS mode. Its SDMA
// submission path deliberately reproduces the Linux driver's behaviour from
// §3.4: buffers are pinned with get_user_pages() and descriptors never
// exceed PAGE_SIZE (4 KiB), even though the hardware takes 10 KiB.
//
// Driver state lives as raw structure images in the Linux kernel heap,
// accessed through the version-dependent layout table (layouts.hpp); the
// shipped module binary (with DWARF debug info) is what the PicoDriver
// binds against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/flat_map.hpp"
#include "src/hfi/layouts.hpp"
#include "src/hfi/uapi.hpp"
#include "src/hw/hfi_device.hpp"
#include "src/mem/address_space.hpp"
#include "src/os/kernel.hpp"
#include "src/os/process.hpp"
#include "src/os/spinlock.hpp"

namespace pd::hfi {

class HfiDriver final : public os::CharDevice {
 public:
  /// Constructs, initializes per-engine state images, and registers the
  /// device with the Linux kernel's VFS.
  HfiDriver(os::LinuxKernel& linux_kernel, hw::HfiDevice& device, const std::string& version);
  ~HfiDriver() override;

  std::string dev_name() const override { return kDeviceName; }

  sim::Task<Result<long>> open(os::OpenFile& f) override;
  sim::Task<Result<long>> writev(os::OpenFile& f, std::span<const os::IoVec> iov) override;
  sim::Task<Result<long>> ioctl(os::OpenFile& f, unsigned long cmd, void* arg) override;
  sim::Task<Result<mem::PhysAddr>> mmap(os::OpenFile& f, std::uint64_t len,
                                        std::uint64_t offset) override;
  sim::Task<Result<long>> read(os::OpenFile& f, std::uint64_t len) override;
  sim::Task<Result<long>> lseek(os::OpenFile& f, long offset, int whence) override;
  sim::Task<Result<long>> close(os::OpenFile& f) override;

  /// --- what the PicoDriver needs ----------------------------------------
  os::LinuxKernel& linux_kernel() { return linux_; }
  hw::HfiDevice& device() { return device_; }
  const dwarf::LayoutTable& layouts() const { return layouts_; }
  /// The vendor-shipped module binary (DWARF inside).
  const dwarf::ModuleBinary& module_binary() const { return module_; }

  /// Per-engine submission spin-lock — the lock both kernels take (§3.3).
  os::SharedSpinlock& engine_lock(int engine_id) {
    return *engine_locks_.at(static_cast<std::size_t>(engine_id));
  }

  /// Kernel-heap addresses of internal structure images. The PicoDriver
  /// obtains these "pointers" by following driver state — here, via
  /// accessors standing in for pointer chases through unified memory.
  mem::PhysAddr sdma_engine_image(int engine_id) const;
  mem::PhysAddr filedata_image(const os::OpenFile& f) const;
  mem::PhysAddr ctxtdata_image(const os::OpenFile& f) const;

  /// Per-context TID records shared with the fast path: one per programmed
  /// TID, holding its registration sequence and, on the Linux path, the one
  /// frame it gup-pinned. Fast-path TIDs cover LWK memory pinned at mmap and
  /// hold no frame.
  void record_tid(os::OpenFile& f, std::uint32_t tid,
                  std::optional<mem::PhysAddr> frame = std::nullopt);
  /// Drops `tid`'s record and puts its frame; whether it held one.
  bool release_tid(os::OpenFile& f, std::uint32_t tid);

  /// Quota reclamation (`Config::hfi_tid_quota_evict`): unprogram and unpin
  /// this context's least-recently-registered live TID entry, freeing one
  /// RcvArray accounting unit (a page on the Linux path, an extent on the
  /// pico path). Strictly per-tenant — only entries the context itself owns
  /// are eligible, so a neighbour at quota can never push out this
  /// context's registrations. ENOENT when the context owns nothing.
  Status evict_lru_tid(os::OpenFile& f);

  /// --- instrumentation (drives the §4.3 descriptor-size verification) ----
  std::uint64_t writev_calls() const { return writev_calls_; }
  std::uint64_t tid_entries_programmed() const { return tid_programs_; }

  /// Simulated text address of the driver's completion callback (inside
  /// the Linux image — always visible to Linux).
  mem::VirtAddr completion_callback_text() const;

 private:
  struct TidRecord {
    std::uint64_t seq = 0;  // registration order; eviction takes the lowest
    std::optional<mem::PhysAddr> frame;  // Linux path: the page it gup-pinned
  };
  struct FileCtx {
    mem::PhysAddr filedata = 0;
    mem::PhysAddr ctxtdata = 0;
    int hw_ctxt = -1;
    FlatMap<TidRecord> tids;  // keyed by TID
    std::uint64_t next_tid_seq = 0;
  };

  FileCtx* fctx(const os::OpenFile& f) const { return static_cast<FileCtx*>(f.driver_ctx); }
  dwarf::StructImage image(mem::PhysAddr addr, const char* struct_name) const;
  int alloc_cpu() const;  // representative Linux CPU for kheap ownership

  os::LinuxKernel& linux_;
  hw::HfiDevice& device_;
  dwarf::LayoutTable layouts_;
  dwarf::ModuleBinary module_;

  std::vector<mem::PhysAddr> engine_images_;
  std::vector<std::unique_ptr<os::SharedSpinlock>> engine_locks_;
  std::uint32_t expected_entries_per_ctxt_;

  std::uint64_t writev_calls_ = 0;
  std::uint64_t tid_programs_ = 0;
};

}  // namespace pd::hfi
