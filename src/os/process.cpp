#include "src/os/process.hpp"

#include "src/mem/types.hpp"

namespace pd::os {

namespace {
constexpr mem::VirtAddr kUserMmapBase = 0x0000'2AAA'0000'0000ull;

/// The driver's mmap with its address as the `long` every device call
/// returns (what an offload carries back).
sim::Task<Result<long>> mmap_as_long(CharDevice& dev, OpenFile& f, std::uint64_t len,
                                     std::uint64_t offset) {
  Result<mem::PhysAddr> pa = co_await dev.mmap(f, len, offset);
  if (!pa.ok()) co_return pa.error();
  co_return static_cast<long>(*pa);
}
}  // namespace

Process::Process(LinuxKernel& kernel, mem::PhysMap& phys, int node, int ctxt, std::uint64_t seed)
    : linux_(&kernel), node_(node), ctxt_(ctxt), rng_(seed) {
  as_ = std::make_unique<mem::AddressSpace>(phys, mem::BackingPolicy::linux_4k,
                                            mem::MemKind::mcdram, kUserMmapBase, seed ^ 0x5A5A);
}

Process::Process(McKernel& kernel, mem::PhysMap& phys, int node, int ctxt, std::uint64_t seed)
    : mck_(&kernel), node_(node), ctxt_(ctxt), rng_(seed) {
  as_ = std::make_unique<mem::AddressSpace>(phys, mem::BackingPolicy::lwk_contig,
                                            mem::MemKind::mcdram, kUserMmapBase, seed ^ 0x5A5A);
}

OpenFile* Process::file(int fd) {
  auto it = files_.find(fd);
  return it == files_.end() ? nullptr : &it->second;
}

void Process::account(const char* name, Time start) {
  kernel().profiler().record(name, engine().now() - start);
}

template <typename Op, typename Fast>
sim::Task<Result<long>> Process::device_call(const char* name, int fd, ikc::Priority prio,
                                             Op op, Fast fast) {
  const Time t0 = engine().now();
  OpenFile* f = file(fd);
  if (f == nullptr) {
    account(name, t0);
    co_return Errno::ebadf;
  }
  Result<long> r = Errno::enosys;
  const FastPathOps* fp = on_lwk() ? mck_->fastpath(*f->dev) : nullptr;
  FastCall fast_call = fp != nullptr ? fast(*fp, *f) : std::nullopt;
  if (!on_lwk()) {
    co_await engine().delay(cfg().syscall_entry);
    r = co_await op(*f->dev, *f);
  } else if (fast_call) {
    co_await engine().delay(cfg().lwk_syscall_entry);
    r = co_await std::move(*fast_call);
  } else {
    // The proxy runs the Linux driver's op on a service CPU.
    r = co_await mck_->ihk().offload([&] { return op(*f->dev, *f); }, prio, ctxt_, job_);
  }
  account(name, t0);
  co_return r;
}

sim::Task<Result<int>> Process::open(const std::string& dev_name) {
  CharDevice* dev = linux_kernel().device(dev_name);
  if (dev == nullptr) {
    account("open", engine().now());
    co_return Errno::enoent;
  }
  const int fd = next_fd_++;
  OpenFile& f = files_[fd];
  f.fd = fd;
  f.proc = this;
  f.dev = dev;
  f.ctxt = ctxt_;  // desired hardware receive context (assignment request)

  // Device open is never fast-pathed: the proxy calls the Linux driver,
  // which initializes all the internal state the fast path later reuses.
  Result<long> r = co_await device_call("open", fd, ikc::Priority::control,
                                        [](CharDevice& d, OpenFile& file) { return d.open(file); });
  if (!r.ok()) {
    files_.erase(fd);
    co_return r.error();
  }
  co_return fd;
}

sim::Task<Result<long>> Process::writev(int fd, std::vector<IoVec> iov) {
  // The vector lives in this coroutine's frame, so the span stays valid
  // across every suspension of the inner call.
  co_return co_await writev(fd, std::span<const IoVec>(iov));
}

sim::Task<Result<long>> Process::writev(int fd, std::span<const IoVec> iov) {
  return device_call(
      "writev", fd, ikc::Priority::bulk,
      [iov](CharDevice& d, OpenFile& f) { return d.writev(f, iov); },
      [iov](const FastPathOps& fp, OpenFile& f) -> FastCall {
        if (!fp.writev) return std::nullopt;
        return fp.writev(f, iov);
      });
}

sim::Task<Result<long>> Process::ioctl(int fd, unsigned long cmd, void* arg) {
  return device_call(
      "ioctl", fd, ikc::Priority::control,
      [cmd, arg](CharDevice& d, OpenFile& f) { return d.ioctl(f, cmd, arg); },
      [cmd, arg](const FastPathOps& fp, OpenFile& f) -> FastCall {
        // Only the TID registration commands are ported (3 of ~a dozen).
        if (!fp.ioctl || !fp.ioctl_handles || !fp.ioctl_handles(cmd)) return std::nullopt;
        return fp.ioctl(f, cmd, arg);
      });
}

sim::Task<Result<long>> Process::read_fd(int fd, std::uint64_t len) {
  return device_call("read", fd, ikc::Priority::bulk,
                     [len](CharDevice& d, OpenFile& f) { return d.read(f, len); });
}

sim::Task<Result<long>> Process::lseek(int fd, long offset, int whence) {
  return device_call(
      "lseek", fd, ikc::Priority::control,
      [offset, whence](CharDevice& d, OpenFile& f) { return d.lseek(f, offset, whence); });
}

sim::Task<Result<mem::VirtAddr>> Process::mmap_dev(int fd, std::uint64_t len,
                                                   std::uint64_t offset) {
  // The driver part runs on the call's route; the calling kernel installs
  // the mapping into its own page tables afterwards (on the LWK, the
  // paper's device-mapping path).
  Result<long> pa = co_await device_call(
      "mmap", fd, ikc::Priority::control,
      [len, offset](CharDevice& d, OpenFile& f) { return mmap_as_long(d, f, len, offset); });
  if (!pa.ok()) co_return pa.error();
  auto va = as_->mmap_device(static_cast<mem::PhysAddr>(*pa), len,
                             mem::kProtRead | mem::kProtWrite);
  if (!va.ok()) co_return va.error();
  co_return *va;
}

sim::Task<Result<mem::VirtAddr>> Process::mmap_anon(std::uint64_t len) {
  const Time t0 = engine().now();
  // A length past the user range fails before any page is touched, so it
  // pays no per-page cost (and cannot overflow the charge).
  const std::uint64_t pages =
      len <= mem::kUserVaEnd ? mem::page_ceil(len, mem::kPage4K) / mem::kPage4K : 0;
  const Dur per_page = on_lwk() ? cfg().lwk_mmap_per_page : cfg().linux_mmap_per_page;
  co_await engine().delay(cfg().mmap_base_cost + static_cast<Dur>(pages) * per_page);
  auto va = as_->mmap_anonymous(len, mem::kProtRead | mem::kProtWrite);
  account("mmap", t0);
  if (!va.ok()) co_return va.error();
  co_return *va;
}

sim::Task<Result<long>> Process::munmap(mem::VirtAddr addr, std::uint64_t len) {
  const Time t0 = engine().now();
  // Likewise a range munmap refuses outright.
  const std::uint64_t pages =
      mem::user_range_ok(addr, len) ? mem::page_ceil(len, mem::kPage4K) / mem::kPage4K : 0;
  const Dur per_page = on_lwk() ? cfg().lwk_munmap_per_page : cfg().linux_munmap_per_page;
  co_await engine().delay(cfg().mmap_base_cost / 2 + static_cast<Dur>(pages) * per_page);
  Status s = as_->munmap(addr, len);
  account("munmap", t0);
  if (!s.ok()) co_return s.error();
  co_return 0L;
}

sim::Task<Result<long>> Process::close_fd(int fd) {
  Result<long> r = co_await device_call("close", fd, ikc::Priority::control,
                                        [](CharDevice& d, OpenFile& f) { return d.close(f); });
  files_.erase(fd);
  co_return r;
}

sim::Task<> Process::nanosleep(Dur d) {
  const Time t0 = engine().now();
  co_await engine().delay((on_lwk() ? cfg().lwk_syscall_entry : cfg().syscall_entry) + d);
  account("nanosleep", t0);
}

sim::Task<> Process::compute(Dur work) { co_await kernel().compute(work, rng_); }

}  // namespace pd::os
