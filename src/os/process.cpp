#include "src/os/process.hpp"

#include "src/mem/types.hpp"

namespace pd::os {

namespace {
constexpr mem::VirtAddr kUserMmapBase = 0x0000'2AAA'0000'0000ull;
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

sim::Task<Result<int>> Process::open(const std::string& dev_name) {
  const Time t0 = engine().now();
  CharDevice* dev = linux_kernel().device(dev_name);
  if (dev == nullptr) {
    account("open", t0);
    co_return Errno::enoent;
  }
  const int fd = next_fd_++;
  OpenFile& f = files_[fd];
  f.fd = fd;
  f.proc = this;
  f.dev = dev;
  f.ctxt = ctxt_;  // desired hardware receive context (assignment request)

  Result<long> r = Errno::enosys;
  if (!on_lwk()) {
    co_await engine().delay(cfg().syscall_entry);
    r = co_await dev->open(f);
  } else {
    // Device open is never fast-pathed: the proxy calls the Linux driver,
    // which initializes all the internal state the fast path later reuses.
    r = co_await mck_->ihk().offload(
        [&]() -> sim::Task<Result<long>> { co_return co_await dev->open(f); },
        ikc::Priority::control, ctxt_, job_);
  }
  account("open", t0);
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
  const Time t0 = engine().now();
  OpenFile* f = file(fd);
  if (f == nullptr) {
    account("writev", t0);
    co_return Errno::ebadf;
  }
  Result<long> r = Errno::enosys;
  if (!on_lwk()) {
    co_await engine().delay(cfg().syscall_entry);
    r = co_await f->dev->writev(*f, iov);
  } else if (const FastPathOps* fp = mck_->fastpath(*f->dev); fp != nullptr && fp->writev) {
    co_await engine().delay(cfg().lwk_syscall_entry);
    r = co_await fp->writev(*f, iov);
  } else {
    r = co_await mck_->ihk().offload(
        [&]() -> sim::Task<Result<long>> { co_return co_await f->dev->writev(*f, iov); },
        ikc::Priority::bulk, ctxt_, job_);
  }
  account("writev", t0);
  co_return r;
}

sim::Task<Result<long>> Process::ioctl(int fd, unsigned long cmd, void* arg) {
  const Time t0 = engine().now();
  OpenFile* f = file(fd);
  if (f == nullptr) {
    account("ioctl", t0);
    co_return Errno::ebadf;
  }
  Result<long> r = Errno::enosys;
  const FastPathOps* fp = on_lwk() ? mck_->fastpath(*f->dev) : nullptr;
  if (!on_lwk()) {
    co_await engine().delay(cfg().syscall_entry);
    r = co_await f->dev->ioctl(*f, cmd, arg);
  } else if (fp != nullptr && fp->ioctl && fp->ioctl_handles && fp->ioctl_handles(cmd)) {
    // Only the TID registration commands are ported (3 of ~a dozen).
    co_await engine().delay(cfg().lwk_syscall_entry);
    r = co_await fp->ioctl(*f, cmd, arg);
  } else {
    r = co_await mck_->ihk().offload(
        [&]() -> sim::Task<Result<long>> { co_return co_await f->dev->ioctl(*f, cmd, arg); },
        ikc::Priority::control, ctxt_, job_);
  }
  account("ioctl", t0);
  co_return r;
}

sim::Task<Result<long>> Process::poll_fd(int fd) {
  const Time t0 = engine().now();
  OpenFile* f = file(fd);
  if (f == nullptr) {
    account("poll", t0);
    co_return Errno::ebadf;
  }
  Result<long> r = Errno::enosys;
  if (!on_lwk()) {
    co_await engine().delay(cfg().syscall_entry);
    r = co_await f->dev->poll(*f);
  } else {
    r = co_await mck_->ihk().offload(
        [&]() -> sim::Task<Result<long>> { co_return co_await f->dev->poll(*f); },
        ikc::Priority::control, ctxt_, job_);
  }
  account("poll", t0);
  co_return r;
}

sim::Task<Result<long>> Process::read_fd(int fd, std::uint64_t len) {
  const Time t0 = engine().now();
  OpenFile* f = file(fd);
  if (f == nullptr) {
    account("read", t0);
    co_return Errno::ebadf;
  }
  Result<long> r = Errno::enosys;
  if (!on_lwk()) {
    co_await engine().delay(cfg().syscall_entry);
    r = co_await f->dev->read(*f, len);
  } else {
    r = co_await mck_->ihk().offload(
        [&]() -> sim::Task<Result<long>> { co_return co_await f->dev->read(*f, len); },
        ikc::Priority::bulk, ctxt_, job_);
  }
  account("read", t0);
  co_return r;
}

sim::Task<Result<long>> Process::lseek(int fd, long offset, int whence) {
  const Time t0 = engine().now();
  OpenFile* f = file(fd);
  if (f == nullptr) {
    account("lseek", t0);
    co_return Errno::ebadf;
  }
  Result<long> r = Errno::enosys;
  if (!on_lwk()) {
    co_await engine().delay(cfg().syscall_entry);
    r = co_await f->dev->lseek(*f, offset, whence);
  } else {
    r = co_await mck_->ihk().offload(
        [&]() -> sim::Task<Result<long>> {
          co_return co_await f->dev->lseek(*f, offset, whence);
        },
        ikc::Priority::control, ctxt_, job_);
  }
  account("lseek", t0);
  co_return r;
}

sim::Task<Result<mem::VirtAddr>> Process::mmap_dev(int fd, std::uint64_t len,
                                                   std::uint64_t offset) {
  const Time t0 = engine().now();
  OpenFile* f = file(fd);
  if (f == nullptr) {
    account("mmap", t0);
    co_return Errno::ebadf;
  }
  Result<mem::PhysAddr> pa = Errno::enosys;
  if (!on_lwk()) {
    co_await engine().delay(cfg().syscall_entry);
    pa = co_await f->dev->mmap(*f, len, offset);
  } else {
    // Offloaded to Linux for the driver part; the LWK installs the mapping
    // into its own page tables afterwards (paper's device-mapping path).
    Result<long> got = co_await mck_->ihk().offload(
        [&]() -> sim::Task<Result<long>> {
          auto r = co_await f->dev->mmap(*f, len, offset);
          if (!r.ok()) co_return r.error();
          co_return static_cast<long>(*r);
        },
        ikc::Priority::control, ctxt_, job_);
    if (got.ok())
      pa = static_cast<mem::PhysAddr>(*got);
    else
      pa = got.error();
  }
  if (!pa.ok()) {
    account("mmap", t0);
    co_return pa.error();
  }
  auto va = as_->mmap_device(*pa, len, mem::kProtRead | mem::kProtWrite);
  account("mmap", t0);
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
  const Time t0 = engine().now();
  OpenFile* f = file(fd);
  if (f == nullptr) {
    account("close", t0);
    co_return Errno::ebadf;
  }
  Result<long> r = Errno::enosys;
  if (!on_lwk()) {
    co_await engine().delay(cfg().syscall_entry);
    r = co_await f->dev->close(*f);
  } else {
    r = co_await mck_->ihk().offload(
        [&]() -> sim::Task<Result<long>> { co_return co_await f->dev->close(*f); },
        ikc::Priority::control, ctxt_, job_);
  }
  files_.erase(fd);
  account("close", t0);
  co_return r;
}

sim::Task<> Process::nanosleep(Dur d) {
  const Time t0 = engine().now();
  co_await engine().delay((on_lwk() ? cfg().lwk_syscall_entry : cfg().syscall_entry) + d);
  account("nanosleep", t0);
}

sim::Task<> Process::compute(Dur work) { co_await kernel().compute(work, rng_); }

}  // namespace pd::os
