// The pd-doom PicoDriver: an LWK fast path for batched command submission
// only — context/buffer management, waits, and resets stay on the offload
// path, exactly like the HFI's administrative ioctls.
//
// Built on the same FastPathPort base as the HFI port, so the bind flow,
// extent-cache policy, fallback accounting, and profiler namespace are
// shared, not copied. What differs is §3.4 applied to a command-queue
// device instead of a streaming DMA engine:
//   * no get_user_pages: source buffers translate through the per-file
//     ExtentCache (page-table walk memoized, pinned LWK memory);
//   * the DMA page table is programmed one PTE per physically contiguous
//     *extent* (up to the hardware's 2 MiB limit) instead of the Linux
//     driver's one PTE per 4 KiB page — far fewer MMIO programs per batch;
//   * ring-slot reservation happens under the driver's own submission
//     spin-lock (§3.3), with bounded backoff and fallback to the Linux
//     ioctl when the ring stays full;
//   * completion metadata lives in the McKernel heap; the fence's cleanup
//     callback is LWK TEXT that runs on a Linux IRQ CPU, tears down the
//     batch's transient PTEs, and routes the kfree through the remote-free
//     queue.
//
// Every driver structure it touches (doom_devdata and its embedded
// doom_ringstate, per-open doom_ctx) is read and written through
// DWARF-extracted offsets only, on images fetched through
// FastPathPort::image(); the fence-sequence counter and the dva allocator
// cursor are image fields shared with the Linux path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/doom/driver.hpp"
#include "src/pico/fast_path_port.hpp"

namespace pd::pico {

class DoomPicoDriver final : public FastPathPort {
 public:
  /// Bind against the doom driver's shipped module and install the batched-
  /// submit fast path. Same failure modes as the HFI port (VA layout, lock
  /// ABI, missing structures/fields in the module's debug info, EINVAL for
  /// an accessed field, or the member embedding one, whose width differs
  /// from the one the fast path reads).
  static Result<std::unique_ptr<DoomPicoDriver>> create(os::McKernel& mck,
                                                        doom::DoomDriver& driver);

  doom::DoomDriver& driver() { return driver_; }

  /// --- fast path (installed via McKernel::register_fastpath) --------------
  sim::Task<Result<long>> fast_ioctl(os::OpenFile& f, unsigned long cmd, void* arg);

  /// --- doom-specific instrumentation --------------------------------------
  std::uint64_t fast_submits() const { return fast_submits_; }
  /// PTEs programmed by the fast path (one per extent — compare with the
  /// slow path's per-page DoomDriver::pte_programs()).
  std::uint64_t extents_programmed() const { return extents_programmed_; }

 private:
  DoomPicoDriver(PicoBinding binding, os::McKernel& mck, doom::DoomDriver& driver);

  sim::Task<Result<long>> fast_submit(os::OpenFile& f, doom::DoomSubmitArgs& args);

  /// Every accessor bound: each extracted field has its accessor's width,
  /// and doom_devdata.ring spans a whole doom_ringstate.
  bool fields_bound() const {
    return dev_fence_seq_.bound() && dev_cmds_submitted_.bound() && ring_run_state_.bound() &&
           ctx_pt_used_.bound() && ctx_dva_next_.bound() && ctx_batches_submitted_.bound();
  }

  doom::DoomDriver& driver_;

  dwarf::FieldAccessor<std::uint64_t> dev_fence_seq_;
  dwarf::FieldAccessor<std::uint64_t> dev_cmds_submitted_;
  dwarf::FieldAccessor<std::uint32_t> ring_run_state_;  // via doom_devdata.ring
  dwarf::FieldAccessor<std::uint64_t> ctx_pt_used_;
  dwarf::FieldAccessor<std::uint64_t> ctx_dva_next_;
  dwarf::FieldAccessor<std::uint64_t> ctx_batches_submitted_;
  // Declared byte sizes of the images the accessors above read (image()).
  std::uint64_t dev_image_size_ = 0;
  std::uint64_t ctx_image_size_ = 0;

  BufferArena<hw::DoomCommand> cmd_arena_;

  std::uint64_t fast_submits_ = 0;
  std::uint64_t extents_programmed_ = 0;
};

}  // namespace pd::pico
