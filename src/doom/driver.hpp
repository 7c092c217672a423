// The simulated pd-doom Linux driver (second device class).
//
// Like the HFI driver, this is one "unmodified driver" object serving
// native Linux syscalls, offloaded McKernel syscalls, and coexisting with a
// PicoDriver fast path. Its submit path deliberately mirrors the harddoom
// driver's Linux behaviour: every source buffer is pinned with
// get_user_pages() and the DMA page table is programmed one 4 KiB entry per
// page — blind to physical contiguity, exactly the §3.4 shortcoming the
// LWK fast path removes (extent-sized PTEs, no gup).
//
// Driver state (`doom_devdata` with its embedded `doom_ringstate`, per-open
// `doom_ctx`) lives as raw structure images in the Linux kernel heap,
// accessed through the version-dependent layout table; the shipped module
// binary (DWARF inside) is what the PicoDriver binds against. The fence
// sequence counter, the device-VA allocator cursor, and the submitted-
// command counter are all fields of those images, so fast and slow path
// share them through memory, never through an API.
//
// Completion plumbing is shared across paths: any submitter registers the
// fence's callback chain with register_completion(); the device's fence
// IRQ dispatches every chain retired so far. A fence whose IRQ was lost
// (fault injection) is recovered by the wait-fence poll loop, which checks
// the device's retire register and dispatches the missing chains inline
// ("doom.irq.recovered").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/doom/layouts.hpp"
#include "src/doom/uapi.hpp"
#include "src/hw/doom_device.hpp"
#include "src/mem/address_space.hpp"
#include "src/os/kernel.hpp"
#include "src/os/process.hpp"
#include "src/os/spinlock.hpp"

namespace pd::doom {

class DoomDriver final : public os::CharDevice {
 public:
  DoomDriver(os::LinuxKernel& linux_kernel, hw::DoomDevice& device, const std::string& version);
  ~DoomDriver() override;

  std::string dev_name() const override { return kDeviceName; }

  // Submission is an ioctl surface; writev, mmap (no BAR surface in the
  // model), read and lseek keep CharDevice's EINVAL.
  sim::Task<Result<long>> open(os::OpenFile& f) override;
  sim::Task<Result<long>> ioctl(os::OpenFile& f, unsigned long cmd, void* arg) override;
  sim::Task<Result<long>> close(os::OpenFile& f) override;

  /// --- what the PicoDriver needs ----------------------------------------
  os::LinuxKernel& linux_kernel() { return linux_; }
  hw::DoomDevice& device() { return device_; }
  const dwarf::LayoutTable& layouts() const { return layouts_; }
  const dwarf::ModuleBinary& module_binary() const { return module_; }

  /// The command-ring submission spin-lock both kernels take (§3.3).
  os::SharedSpinlock& ring_lock() { return *ring_lock_; }

  /// Kernel-heap addresses of internal structure images.
  mem::PhysAddr devdata_image() const { return devdata_; }
  mem::PhysAddr ctx_image(const os::OpenFile& f) const;

  /// Register the callback chain for a fence: dispatched (raise_irq) when
  /// the device retires it, or inline by lost-IRQ recovery. Used by both
  /// the slow path and the LWK fast path.
  void register_completion(std::uint64_t seq, std::vector<os::KernelCallback> callbacks);

  /// Lost-IRQ recovery: compare the device's retire register against the
  /// pending fences and dispatch anything the hardware finished but never
  /// reported. Returns the number of fences recovered.
  std::uint64_t recover_completions();

  /// --- instrumentation ----------------------------------------------------
  std::uint64_t submit_batches() const { return submit_batches_; }
  std::uint64_t pte_programs() const { return pte_programs_; }
  std::uint64_t fences_dispatched() const { return fences_dispatched_; }
  std::uint64_t irqs_recovered() const { return irqs_recovered_; }

  /// Simulated text address of the driver's completion callback (inside
  /// the Linux image — always visible to Linux).
  mem::VirtAddr completion_callback_text() const;

 private:
  struct FileCtx {
    mem::PhysAddr ctxdata = 0;
    int hw_ctxt = -1;  // < 0 until kDoomCreateCtx
    // Persistent (kDoomMapBuffer) pins, released at close.
    std::vector<mem::PinnedPages> persistent_pins;
  };

  FileCtx* fctx(const os::OpenFile& f) const { return static_cast<FileCtx*>(f.driver_ctx); }
  dwarf::StructImage image(mem::PhysAddr addr, const char* struct_name) const;
  dwarf::StructImage ring_image() const;  // embedded doom_ringstate view
  int alloc_cpu() const { return 0; }

  /// Reserve `bytes` of device VA from the ctx image's dva_next cursor
  /// (shared with the fast path through the image field).
  std::uint64_t alloc_dva(dwarf::StructImage& ctx_img, std::uint64_t bytes);

  /// Mirror a device fault into the doom_ringstate image (run_state=error);
  /// submitters check the image, not the device object.
  void note_device_fault();

  sim::Task<Result<long>> submit_batch(os::OpenFile& f, DoomSubmitArgs& args);
  sim::Task<Result<long>> wait_fence(os::OpenFile& f, std::uint64_t seq);

  void on_fence_retired(std::uint64_t seq);
  std::uint64_t dispatch_upto(std::uint64_t seq, bool recovered);

  os::LinuxKernel& linux_;
  hw::DoomDevice& device_;
  dwarf::LayoutTable layouts_;
  dwarf::ModuleBinary module_;

  mem::PhysAddr devdata_ = 0;
  std::unique_ptr<os::SharedSpinlock> ring_lock_;

  std::map<std::uint64_t, std::vector<os::KernelCallback>> pending_;
  std::uint64_t completed_upto_ = 0;

  std::uint64_t submit_batches_ = 0;
  std::uint64_t pte_programs_ = 0;
  std::uint64_t fences_dispatched_ = 0;
  std::uint64_t irqs_recovered_ = 0;
};

}  // namespace pd::doom
