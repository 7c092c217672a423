// The HFI PicoDriver: LWK fast paths for SDMA send (writev) and expected-
// receive registration (the three TID ioctls) — the < 3 K SLOC the paper
// ports, everything else stays on the offload path.
//
// The fast paths differ from the Linux driver's in exactly the §3.4 ways:
//   * no get_user_pages: LWK anonymous memory is pinned at mmap time, so
//     the driver walks page tables directly (cheaper per page);
//   * descriptors up to the hardware's 10 KiB, built from physically
//     contiguous extents (large pages make those common on the LWK);
//   * completion metadata lives in the *McKernel* heap; the completion
//     callback is a duplicated copy in LWK TEXT whose deallocation routine
//     is McKernel's (§3.3) — it runs on a Linux CPU and routes the free
//     through the remote-free queue.
//
// The device-independent machinery — extent caches and their quota, the
// remote-free drain piggyback, slab-magazine metadata, fallback accounting,
// the "pico.*" profiler namespace — lives in the FastPathPort base this
// driver shares with the pd-doom port. What stays here is HFI-specific:
// the extracted sdma/filedata accessors, descriptor building, the SDMA
// submit flow, and the TID registration paths.
//
// All driver state it touches (sdma_engine/sdma_state images, filedata,
// ctxtdata) is read and written through DWARF-extracted offsets only, on
// images fetched through FastPathPort::image(): EINVAL when the driver's
// block is smaller than the structure the module's debug info declares.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hfi/driver.hpp"
#include "src/pico/fast_path_port.hpp"

namespace pd::pico {

class HfiPicoDriver final : public FastPathPort {
 public:
  /// Bind against the driver's shipped module and install the fast paths
  /// into the LWK. Fails (forwarding PicoBinding::bind errors) when the
  /// LWK booted with the original VA layout, on lock-ABI mismatch, or when
  /// the module's debug info lacks a required structure; EINVAL when it
  /// gives an accessed field, or the member embedding one, a width other
  /// than the one the fast path reads.
  static Result<std::unique_ptr<HfiPicoDriver>> create(os::McKernel& mck,
                                                       hfi::HfiDriver& driver);

  hfi::HfiDriver& driver() { return driver_; }

  /// --- fast paths (installed via McKernel::register_fastpath) ------------
  sim::Task<Result<long>> fast_writev(os::OpenFile& f, std::span<const os::IoVec> iov);
  sim::Task<Result<long>> fast_ioctl(os::OpenFile& f, unsigned long cmd, void* arg);

  /// --- HFI-specific instrumentation (shared counters live in the base) ---
  std::uint64_t fast_writevs() const { return fast_writevs_; }
  std::uint64_t fast_tid_updates() const { return fast_tid_updates_; }
  std::uint64_t fast_tid_frees() const { return fast_tid_frees_; }

 private:
  HfiPicoDriver(PicoBinding binding, os::McKernel& mck, hfi::HfiDriver& driver);

  /// Every accessor bound: each extracted field has its accessor's width,
  /// and sdma_engine.state spans a whole sdma_state.
  bool fields_bound() const {
    return eng_this_idx_.bound() && eng_descq_submitted_.bound() && state_current_.bound() &&
           fd_engine_idx_.bound() && fd_tid_used_.bound() && cd_expected_count_.bound();
  }

  hfi::HfiDriver& driver_;

  dwarf::FieldAccessor<std::uint32_t> eng_this_idx_;
  dwarf::FieldAccessor<std::uint64_t> eng_descq_submitted_;
  dwarf::FieldAccessor<std::uint32_t> state_current_;  // via sdma_engine.state
  dwarf::FieldAccessor<std::uint32_t> fd_engine_idx_;
  dwarf::FieldAccessor<std::uint64_t> fd_tid_used_;
  dwarf::FieldAccessor<std::uint32_t> cd_expected_count_;
  // Declared byte sizes of the images the accessors above read (image()).
  std::uint64_t eng_image_size_ = 0;
  std::uint64_t fd_image_size_ = 0;
  std::uint64_t cd_image_size_ = 0;

  BufferArena<hw::SdmaDescriptor> desc_arena_;

  std::uint64_t fast_writevs_ = 0;
  std::uint64_t fast_tid_updates_ = 0;
  std::uint64_t fast_tid_frees_ = 0;
};

}  // namespace pd::pico
