// A simulated OS process (one MPI rank): syscall surface + address space.
//
// The same Process type runs on either kernel. Every device-file syscall
// takes its route in one place, `device_call`, which picks one of the
// paper's three execution paths:
//   * Linux process  — native trap, driver runs on the caller's core;
//   * McKernel       — device calls offloaded through IHK to a proxy on a
//                      Linux service CPU;
//   * McKernel + HFI — writev and TID ioctls take the registered PicoDriver
//                      fast path locally; everything else still offloads.
// Every call records its in-kernel time into the owning kernel's profiler
// (Figures 8/9 come straight from those counters), a bad fd included.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/mem/address_space.hpp"
#include "src/os/mckernel.hpp"

namespace pd::os {

class Process {
 public:
  /// Linux-native process.
  Process(LinuxKernel& kernel, mem::PhysMap& phys, int node, int ctxt, std::uint64_t seed);
  /// McKernel process (its proxy lives in `kernel.ihk().linux_kernel()`).
  Process(McKernel& kernel, mem::PhysMap& phys, int node, int ctxt, std::uint64_t seed);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  bool on_lwk() const { return mck_ != nullptr; }
  Kernel& kernel() { return on_lwk() ? static_cast<Kernel&>(*mck_) : *linux_; }
  LinuxKernel& linux_kernel() { return on_lwk() ? mck_->ihk().linux_kernel() : *linux_; }

  mem::AddressSpace& as() { return *as_; }
  int node() const { return node_; }
  int ctxt() const { return ctxt_; }
  Rng& rng() { return rng_; }

  /// Tenant identity every offload this process submits is tagged with.
  /// Defaults to job 0 (single tenant); a multi-job harness assigns each
  /// process its job before generating traffic.
  ikc::JobId job() const { return job_; }
  void set_job(ikc::JobId job) { job_ = job; }

  /// --- syscalls -----------------------------------------------------------
  sim::Task<Result<int>> open(const std::string& dev_name);
  sim::Task<Result<long>> writev(int fd, std::vector<IoVec> iov);
  /// Allocation-free variant: the caller owns the iovec storage and must
  /// keep it alive until the call returns (PSM's fixed header+payload pair).
  sim::Task<Result<long>> writev(int fd, std::span<const IoVec> iov);
  sim::Task<Result<long>> ioctl(int fd, unsigned long cmd, void* arg);
  sim::Task<Result<long>> read_fd(int fd, std::uint64_t len);
  sim::Task<Result<long>> lseek(int fd, long offset, int whence);
  sim::Task<Result<mem::VirtAddr>> mmap_dev(int fd, std::uint64_t len, std::uint64_t offset);
  sim::Task<Result<mem::VirtAddr>> mmap_anon(std::uint64_t len);
  sim::Task<Result<long>> munmap(mem::VirtAddr addr, std::uint64_t len);
  sim::Task<Result<long>> close_fd(int fd);
  sim::Task<> nanosleep(Dur d);

  /// Application compute (subject to the kernel's OS-noise model).
  sim::Task<> compute(Dur work);

  OpenFile* file(int fd);

 private:
  /// A fast-path op bound to one call's arguments (a lazy task: nothing
  /// runs until it is awaited), or nothing when the port does not cover
  /// the call.
  using FastCall = std::optional<sim::Task<Result<long>>>;
  /// The fast-path pick of a call no PicoDriver ports.
  struct NoFastPath {
    FastCall operator()(const FastPathOps&, OpenFile&) const { return std::nullopt; }
  };

  /// The route of one device-file syscall. Looks `fd` up (EBADF when it is
  /// not open), then runs `op(device, file)` natively on Linux. On the LWK
  /// it runs the call `fast(ops, file)` picks from the device's registered
  /// fast path, or else offloads `op` to the Linux proxy at `prio`. Records
  /// the call under `name` either way. Keep the captures of `op` and `fast`
  /// trivially destructible: GCC 12 destroys a lambda temporary with a
  /// non-trivial capture twice when it is an argument inside a `co_await`
  /// expression.
  template <typename Op, typename Fast = NoFastPath>
  sim::Task<Result<long>> device_call(const char* name, int fd, ikc::Priority prio, Op op,
                                      Fast fast = {});

  sim::Engine& engine() { return kernel().engine(); }
  const Config& cfg() const { return linux_ != nullptr ? linux_->config() : mck_->config(); }
  void account(const char* name, Time start);

  LinuxKernel* linux_ = nullptr;
  McKernel* mck_ = nullptr;
  std::unique_ptr<mem::AddressSpace> as_;
  int node_;
  int ctxt_;
  ikc::JobId job_ = 0;
  Rng rng_;
  std::map<int, OpenFile> files_;
  int next_fd_ = 3;
};

}  // namespace pd::os
