// Character-device / VFS vocabulary.
//
// The Linux kernel model exposes device files through `CharDevice`, whose
// operations mirror the file_operations the real HFI1 driver registers
// (open, writev, ioctl, mmap, read, lseek, close — paper §2.2.2).
// Operations are coroutines: they consume simulated CPU time via engine
// delays and may block on hardware state (ring backpressure). `open` and
// `close` are the only ones a driver must write; any other op it leaves
// out fails with EINVAL, as an empty file_operations slot does on Linux.
// `Process::device_call` decides where each op runs.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "src/common/status.hpp"
#include "src/mem/types.hpp"
#include "src/sim/task.hpp"

namespace pd::os {

class Process;
class CharDevice;

/// One user I/O vector (as passed to writev).
struct IoVec {
  mem::VirtAddr base = 0;
  std::uint64_t len = 0;
};

/// Per-open state (the struct file of the model).
struct OpenFile {
  int fd = -1;
  Process* proc = nullptr;
  CharDevice* dev = nullptr;
  void* driver_ctx = nullptr;  // driver-private (freed by driver close())
  // Teardown fallback set alongside driver_ctx: frees the context when the
  // file dies with close() never called (a process torn down mid-run).
  void (*driver_ctx_dtor)(void*) = nullptr;
  int ctxt = -1;  // hardware receive context bound at open()

  OpenFile() = default;
  OpenFile(const OpenFile&) = delete;
  OpenFile& operator=(const OpenFile&) = delete;
  ~OpenFile() {
    if (driver_ctx != nullptr && driver_ctx_dtor != nullptr) driver_ctx_dtor(driver_ctx);
  }
};

/// Device-file operations. All methods execute "in kernel mode" on the
/// calling CPU's timeline; callers account syscall entry/exit around them.
class CharDevice {
 public:
  virtual ~CharDevice() = default;

  virtual std::string dev_name() const = 0;

  virtual sim::Task<Result<long>> open(OpenFile& f) = 0;
  virtual sim::Task<Result<long>> close(OpenFile& f) = 0;

  virtual sim::Task<Result<long>> writev(OpenFile&, std::span<const IoVec>) {
    co_return Errno::einval;
  }
  virtual sim::Task<Result<long>> ioctl(OpenFile&, unsigned long, void*) {
    co_return Errno::einval;
  }
  /// Returns the device-physical address to map (the caller installs it in
  /// the process address space).
  virtual sim::Task<Result<mem::PhysAddr>> mmap(OpenFile&, std::uint64_t, std::uint64_t) {
    co_return Errno::einval;
  }
  virtual sim::Task<Result<long>> read(OpenFile&, std::uint64_t) { co_return Errno::einval; }
  virtual sim::Task<Result<long>> lseek(OpenFile&, long, int) { co_return Errno::einval; }
};

}  // namespace pd::os
