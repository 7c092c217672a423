// Unit tests for the OS layer: noise model, syscall profiler, IRQ
// routing, IHK offload queueing/costs, Process memory syscalls and the
// route each device-file syscall takes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/units.hpp"
#include "src/os/ihk.hpp"
#include "src/os/proc_jobs.hpp"
#include "src/os/process.hpp"
#include "src/sim/task.hpp"

#define CO_ASSERT_TRUE(cond)                          \
  do {                                                \
    const bool co_assert_ok_ = static_cast<bool>(cond); \
    EXPECT_TRUE(co_assert_ok_) << #cond;              \
    if (!co_assert_ok_) co_return;                    \
  } while (0)

namespace pd::os {
namespace {

using namespace pd::time_literals;

TEST(Noise, LwkComputeIsExact) {
  sim::Engine engine;
  Config cfg;
  Ihk* ihk = nullptr;  // not needed for noise
  (void)ihk;
  LinuxKernel linux_kernel(engine, cfg);
  Ihk real_ihk(engine, cfg, linux_kernel);
  McKernel mck(engine, cfg, real_ihk, true);
  Rng rng(1);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(mck.noisy_duration(from_ms(1.0), rng), from_ms(1.0))
        << "LWK compute must be noise-free";
}

TEST(Noise, LinuxComputeInflatedAndJittery) {
  sim::Engine engine;
  Config cfg;
  LinuxKernel linux_kernel(engine, cfg);
  Rng rng(2);
  const Dur work = from_ms(50.0);
  double total = 0;
  Dur min_d = work * 10, max_d = 0;
  constexpr int kSamples = 200;
  for (int i = 0; i < kSamples; ++i) {
    const Dur d = linux_kernel.noisy_duration(work, rng);
    EXPECT_GE(d, work) << "noise only adds time";
    total += static_cast<double>(d);
    min_d = std::min(min_d, d);
    max_d = std::max(max_d, d);
  }
  const double mean_inflation = total / kSamples / static_cast<double>(work) - 1.0;
  // Steady duty + expected daemon spikes: 0.2% + (50ms/50ms)*10us/50ms = ~0.22%.
  EXPECT_GT(mean_inflation, 0.001);
  EXPECT_LT(mean_inflation, 0.01);
  EXPECT_GT(max_d, min_d) << "daemon spikes must produce jitter";
}

TEST(Profiler, RowsSortedAndShares) {
  SyscallProfiler prof;
  prof.record("writev", from_us(30));
  prof.record("writev", from_us(30));
  prof.record("ioctl", from_us(100));
  prof.record("open", from_us(10));
  auto rows = prof.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "ioctl");
  EXPECT_EQ(rows[1].name, "writev");
  EXPECT_EQ(rows[1].count, 2u);
  EXPECT_NEAR(prof.share_of("ioctl"), 100.0 / 170.0, 1e-9);
  EXPECT_EQ(prof.count_of("nanosleep"), 0u);

  SyscallProfiler other;
  other.record("ioctl", from_us(100));
  prof.merge(other);
  EXPECT_NEAR(prof.share_of("ioctl"), 200.0 / 270.0, 1e-9);
  prof.clear();
  EXPECT_EQ(prof.total_kernel_time(), 0);
}

TEST(Irq, HandledOnServiceCpuWithCost) {
  sim::Engine engine;
  Config cfg;
  LinuxKernel linux_kernel(engine, cfg);
  Time handled_at = -1;
  linux_kernel.raise_irq({KernelCallback{linux_kernel.layout().image.start + 8,
                                         [&] { handled_at = engine.now(); }}});
  engine.run();
  EXPECT_EQ(handled_at, cfg.irq_handler);
  EXPECT_EQ(linux_kernel.irqs_handled(), 1u);
}

TEST(Irq, QueuesBehindBusyServiceCpus) {
  sim::Engine engine;
  Config cfg;
  cfg.linux_service_cpus = 1;
  LinuxKernel linux_kernel(engine, cfg);
  std::vector<Time> done;
  for (int i = 0; i < 3; ++i)
    linux_kernel.raise_irq({KernelCallback{linux_kernel.layout().image.start,
                                           [&] { done.push_back(engine.now()); }}});
  engine.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], cfg.irq_handler);
  EXPECT_EQ(done[1], 2 * cfg.irq_handler);
  EXPECT_EQ(done[2], 3 * cfg.irq_handler);
}

TEST(VmapArea, RejectsOutsideModuleSpaceAndOverlap) {
  sim::Engine engine;
  Config cfg;
  LinuxKernel linux_kernel(engine, cfg);
  const auto module_space = linux_kernel.layout().module_space;
  mem::VaRange inside{"x", module_space.start + 0x1000, module_space.start + 0x2000};
  EXPECT_TRUE(linux_kernel.reserve_vmap_area(inside).ok());
  EXPECT_EQ(linux_kernel.reserve_vmap_area(inside).error(), Errno::eexist);
  mem::VaRange outside{"y", 0xFFFF'0000'0000'0000ull, 0xFFFF'0000'0001'0000ull};
  EXPECT_EQ(linux_kernel.reserve_vmap_area(outside).error(), Errno::einval);
  EXPECT_TRUE(linux_kernel.text_visible(module_space.start + 0x1800));
  EXPECT_FALSE(linux_kernel.text_visible(module_space.start + 0x3000));
}

TEST(Ihk, UncontendedOffloadIsNearNative) {
  // An idle proxy serves at native work speed with the hot wakeup only —
  // the reason single-stream offloading costs ~10 % in Fig. 4, not 5x.
  sim::Engine engine;
  Config cfg;
  cfg.offload_service_multiplier = 4.0;
  LinuxKernel linux_kernel(engine, cfg);
  Ihk ihk(engine, cfg, linux_kernel);

  Time finished = -1;
  const Dur work = from_us(10);
  sim::spawn(engine, [](sim::Engine& eng, Ihk& i, Dur w, Time& out) -> sim::Task<> {
    auto r = co_await i.offload([&eng, w]() -> sim::Task<Result<long>> {
      co_await eng.delay(w);
      co_return 7L;
    });
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(*r, 7L);
    out = eng.now();
  }(engine, ihk, work, finished));
  engine.run();

  const Dur expected = 2 * cfg.offload_oneway + cfg.proxy_wakeup_hot +
                       cfg.offload_dispatch + cfg.proxy_min_service + work;
  EXPECT_EQ(finished, expected);
  EXPECT_EQ(ihk.offload_count(), 1u);
  EXPECT_DOUBLE_EQ(ihk.queueing_summary().mean_us, 0.0);
}

TEST(Ihk, ContendedOffloadDegradesService) {
  // With a saturated queue the per-call cost must exceed the uncontended
  // cost by far more than pure queueing would explain (thrash + cold
  // wakeups + slower proxy-run work).
  sim::Engine engine;
  Config cfg;
  cfg.linux_service_cpus = 1;
  LinuxKernel linux_kernel(engine, cfg);
  Ihk ihk(engine, cfg, linux_kernel);

  const Dur work = from_us(5);
  constexpr int kCalls = 30;
  Time last = 0;
  int done = 0;
  for (int i = 0; i < kCalls; ++i) {
    sim::spawn(engine, [](sim::Engine& eng, Ihk& ih, Dur w, Time& out, int& n) -> sim::Task<> {
      auto r = co_await ih.offload([&eng, w]() -> sim::Task<Result<long>> {
        co_await eng.delay(w);
        co_return 0L;
      });
      EXPECT_TRUE(r.ok());
      out = eng.now();
      ++n;
    }(engine, ihk, work, last, done));
  }
  engine.run();
  EXPECT_EQ(done, kCalls);
  // Pure FIFO without degradation would take ~ kCalls * (uncontended
  // service); the load-dependent model must be well beyond that.
  const Dur uncontended = cfg.proxy_wakeup_hot + cfg.offload_dispatch +
                          cfg.proxy_min_service + work;
  EXPECT_GT(last, kCalls * uncontended * 2);
}

TEST(Ihk, ContentionProducesQueueingAndThrash) {
  sim::Engine engine;
  Config cfg;
  cfg.linux_service_cpus = 1;
  LinuxKernel linux_kernel(engine, cfg);
  Ihk ihk(engine, cfg, linux_kernel);

  int done = 0;
  for (int i = 0; i < 8; ++i) {
    sim::spawn(engine, [](sim::Engine& eng, Ihk& ih, int& n) -> sim::Task<> {
      auto r = co_await ih.offload([&eng]() -> sim::Task<Result<long>> {
        co_await eng.delay(from_us(5));
        co_return 0L;
      });
      EXPECT_TRUE(r.ok());
      ++n;
    }(engine, ihk, done));
  }
  engine.run();
  EXPECT_EQ(done, 8);
  const auto q = ihk.queueing_summary();
  EXPECT_EQ(q.count, 8u);
  EXPECT_GT(q.mean_us, 5.0) << "serialized behind one CPU";
  EXPECT_GE(q.p95_us, q.p50_us);
  EXPECT_GE(q.max_us, q.p95_us);
}

// --- Process syscall surface ----------------------------------------------

struct ProcFixture {
  sim::Engine engine;
  Config cfg;
  mem::PhysMap phys = mem::PhysMap::knl(256_MiB, 1ull << 30, 2);
  LinuxKernel linux_kernel{engine, cfg};
  Ihk ihk{engine, cfg, linux_kernel};
  McKernel mck{engine, cfg, ihk, true};
};

TEST(Process, MmapMunmapAccountedInKernelProfile) {
  ProcFixture f;
  Process proc(f.mck, f.phys, 0, 0, 3);
  sim::spawn(f.engine, [](Process& p) -> sim::Task<> {
    auto va = co_await p.mmap_anon(2_MiB);
    CO_ASSERT_TRUE(va.ok());
    auto r = co_await p.munmap(*va, 2_MiB);
    CO_ASSERT_TRUE(r.ok());
  }(proc));
  f.engine.run();
  EXPECT_EQ(f.mck.profiler().count_of("mmap"), 1u);
  EXPECT_EQ(f.mck.profiler().count_of("munmap"), 1u);
  // LWK munmap is per-page more expensive than mmap (the §4.3 observation).
  EXPECT_GT(f.mck.profiler().total_us_of("munmap"), f.mck.profiler().total_us_of("mmap"));
}

TEST(Process, LwkMunmapCostlierThanLinux) {
  ProcFixture f;
  Process lwk(f.mck, f.phys, 0, 0, 3);
  Process lnx(f.linux_kernel, f.phys, 0, 1, 4);
  auto churn = [](Process& p) -> sim::Task<> {
    auto va = co_await p.mmap_anon(4_MiB);
    CO_ASSERT_TRUE(va.ok());
    (void)co_await p.munmap(*va, 4_MiB);
  };
  sim::spawn(f.engine, churn(lwk));
  sim::spawn(f.engine, churn(lnx));
  f.engine.run();
  EXPECT_GT(f.mck.profiler().total_us_of("munmap"),
            f.linux_kernel.profiler().total_us_of("munmap"));
}

TEST(Process, HugeMmapFailsBeforeChargingPerPageCost) {
  // 2^60 and 2^62 bytes are 2^48 and 2^50 pages: charged per page before
  // the length check, the cost overflows the signed clock.
  ProcFixture f;
  Process lnx(f.linux_kernel, f.phys, 0, 0, 9);
  Process lwk(f.mck, f.phys, 0, 1, 10);
  for (Process* proc : {&lnx, &lwk}) {
    sim::spawn(f.engine, [](Process& p, sim::Engine& e) -> sim::Task<> {
      for (const std::uint64_t len : {1ull << 60, 1ull << 62}) {
        auto va = co_await p.mmap_anon(len);
        EXPECT_EQ(va.error(), Errno::enomem);
        EXPECT_LT(e.now(), from_ms(1.0));
        auto r = co_await p.munmap(0x2AAA'0000'0000ull, len);
        EXPECT_EQ(r.error(), Errno::einval);
        EXPECT_LT(e.now(), from_ms(1.0));
      }
    }(*proc, f.engine));
  }
  f.engine.run();
  EXPECT_EQ(f.linux_kernel.profiler().count_of("mmap"), 2u);
  EXPECT_EQ(f.mck.profiler().count_of("munmap"), 2u);
}

TEST(Process, BadFdReturnsEbadf) {
  ProcFixture f;
  Process lnx(f.linux_kernel, f.phys, 0, 0, 5);
  Process lwk(f.mck, f.phys, 0, 1, 6);
  for (Process* proc : {&lnx, &lwk}) {
    sim::spawn(f.engine, [](Process& p) -> sim::Task<> {
      auto w = co_await p.writev(42, std::vector<os::IoVec>{});
      EXPECT_EQ(w.error(), Errno::ebadf);
      auto i = co_await p.ioctl(42, 1, nullptr);
      EXPECT_EQ(i.error(), Errno::ebadf);
      auto r = co_await p.read_fd(42, 64);
      EXPECT_EQ(r.error(), Errno::ebadf);
      auto s = co_await p.lseek(42, 0, 0);
      EXPECT_EQ(s.error(), Errno::ebadf);
      auto m = co_await p.mmap_dev(42, 4096, 0);
      EXPECT_EQ(m.error(), Errno::ebadf);
      auto c = co_await p.close_fd(42);
      EXPECT_EQ(c.error(), Errno::ebadf);
    }(*proc));
  }
  f.engine.run();
  // Each EBADF is recorded once under its call's name, at zero duration,
  // and nothing reached the proxy.
  for (Process* proc : {&lnx, &lwk}) {
    const SyscallProfiler& prof = proc->kernel().profiler();
    for (const char* name : {"writev", "ioctl", "read", "lseek", "mmap", "close"}) {
      EXPECT_EQ(prof.count_of(name), 1u) << name;
      EXPECT_EQ(prof.total_us_of(name), 0.0) << name;
    }
  }
  EXPECT_EQ(f.ihk.offload_count(), 0u);
}

TEST(Process, OpenUnknownDeviceFails) {
  ProcFixture f;
  Process proc(f.linux_kernel, f.phys, 0, 0, 6);
  sim::spawn(f.engine, [](Process& p) -> sim::Task<> {
    auto fd = co_await p.open("/dev/nonexistent");
    EXPECT_EQ(fd.error(), Errno::enoent);
  }(proc));
  f.engine.run();
}

// --- Device-call routes ---------------------------------------------------

constexpr unsigned long kPortedCmd = 0x10;  // the one ioctl the fast path covers
constexpr unsigned long kOtherCmd = 0x11;
constexpr mem::PhysAddr kProbeBar = 0x0000'00F0'0000'0000ull;

using Counts = std::map<std::string, std::uint64_t>;

/// What one pass of call_every_op saw.
struct RouteTrace {
  std::vector<std::uint64_t> offloads;  // per call, in call order
  Counts driver;                        // driver ops run (natively or by the proxy)
  Counts port;                          // fast-path ops run on the LWK
  Counts records;                       // profiler records per call name
};

/// A device implementing every file op; each run lands in the trace.
class RouteProbe final : public CharDevice {
 public:
  RouteProbe(LinuxKernel& linux_kernel, RouteTrace& trace) : trace_(trace) {
    linux_kernel.register_device(*this);
  }

  std::string dev_name() const override { return "/dev/route_probe"; }

  sim::Task<Result<long>> open(OpenFile&) override { co_return ran("open"); }
  sim::Task<Result<long>> close(OpenFile& f) override {
    // The fd stays open until the driver's close returns.
    EXPECT_EQ(f.proc->file(f.fd), &f);
    co_return ran("close");
  }
  sim::Task<Result<long>> writev(OpenFile&, std::span<const IoVec>) override {
    co_return ran("writev");
  }
  sim::Task<Result<long>> ioctl(OpenFile&, unsigned long, void*) override {
    co_return ran("ioctl");
  }
  sim::Task<Result<mem::PhysAddr>> mmap(OpenFile&, std::uint64_t, std::uint64_t) override {
    ran("mmap");
    co_return kProbeBar;
  }
  sim::Task<Result<long>> read(OpenFile&, std::uint64_t) override { co_return ran("read"); }
  sim::Task<Result<long>> lseek(OpenFile&, long, int) override { co_return ran("lseek"); }

 private:
  long ran(const char* op) {
    ++trace_.driver[op];
    return 0;
  }

  RouteTrace& trace_;
};

sim::Task<Result<long>> port_op(RouteTrace& trace, const char* op) {
  ++trace.port[op];
  co_return 0L;
}

/// RouteProbe's LWK fast path: writev and kPortedCmd.
FastPathOps probe_fast_path(RouteTrace& trace) {
  FastPathOps ops;
  ops.writev = [&trace](OpenFile&, std::span<const IoVec>) { return port_op(trace, "writev"); };
  ops.ioctl = [&trace](OpenFile&, unsigned long, void*) { return port_op(trace, "ioctl"); };
  ops.ioctl_handles = [](unsigned long cmd) { return cmd == kPortedCmd; };
  return ops;
}

/// Makes one of each device call on `p` — open, writev, ioctl(kPortedCmd),
/// ioctl(kOtherCmd), mmap, read, lseek, close — and notes how many IKC
/// offloads each one made.
sim::Task<> call_every_op(Process& p, const Ihk& ihk, std::vector<std::uint64_t>& offloads) {
  std::uint64_t seen = ihk.offload_count();
  auto note = [&] {
    offloads.push_back(ihk.offload_count() - seen);
    seen = ihk.offload_count();
  };
  auto fd = co_await p.open("/dev/route_probe");
  note();
  CO_ASSERT_TRUE(fd.ok());
  const IoVec iov{0x1000, 64};
  auto w = co_await p.writev(*fd, std::span<const IoVec>(&iov, 1));
  note();
  EXPECT_TRUE(w.ok());
  auto ported = co_await p.ioctl(*fd, kPortedCmd, nullptr);
  note();
  EXPECT_TRUE(ported.ok());
  auto other = co_await p.ioctl(*fd, kOtherCmd, nullptr);
  note();
  EXPECT_TRUE(other.ok());
  auto va = co_await p.mmap_dev(*fd, 4096, 0);
  note();
  CO_ASSERT_TRUE(va.ok());
  // The caller's kernel installed the mapping once the driver returned.
  EXPECT_EQ(p.as().translate(*va)->pa, kProbeBar);
  auto r = co_await p.read_fd(*fd, 64);
  note();
  EXPECT_TRUE(r.ok());
  auto s = co_await p.lseek(*fd, 0, 0);
  note();
  EXPECT_TRUE(s.ok());
  auto c = co_await p.close_fd(*fd);
  note();
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(p.file(*fd), nullptr);
}

RouteTrace trace_every_op(bool on_lwk, bool register_fast_path) {
  ProcFixture f;
  RouteTrace trace;
  RouteProbe dev(f.linux_kernel, trace);
  if (register_fast_path) f.mck.register_fastpath(dev, probe_fast_path(trace));
  auto proc = on_lwk ? std::make_unique<Process>(f.mck, f.phys, 0, 0, 41)
                     : std::make_unique<Process>(f.linux_kernel, f.phys, 0, 0, 41);
  sim::spawn(f.engine, call_every_op(*proc, f.ihk, trace.offloads));
  f.engine.run();
  for (const char* name : {"open", "writev", "ioctl", "mmap", "read", "lseek", "close"})
    trace.records[name] = proc->kernel().profiler().count_of(name);
  return trace;
}

TEST(Process, DeviceCallsTakeTheirRoute) {
  // call_every_op's calls by name (two ioctls).
  const Counts every_call = {{"open", 1}, {"writev", 1}, {"ioctl", 2}, {"mmap", 1},
                             {"read", 1}, {"lseek", 1}, {"close", 1}};

  // Linux: every call runs the driver natively, fast path or not.
  const RouteTrace lnx = trace_every_op(/*on_lwk=*/false, /*register_fast_path=*/true);
  EXPECT_EQ(lnx.offloads, std::vector<std::uint64_t>(8, 0));
  EXPECT_EQ(lnx.driver, every_call);
  EXPECT_TRUE(lnx.port.empty());
  EXPECT_EQ(lnx.records, every_call);

  // McKernel: every call is exactly one offload to the proxy's driver.
  const RouteTrace mck = trace_every_op(/*on_lwk=*/true, /*register_fast_path=*/false);
  EXPECT_EQ(mck.offloads, std::vector<std::uint64_t>(8, 1));
  EXPECT_EQ(mck.driver, every_call);
  EXPECT_TRUE(mck.port.empty());
  EXPECT_EQ(mck.records, every_call);

  // McKernel + fast path: writev and the ported command run the port's op
  // on the LWK; the other command and every other call still offload.
  const RouteTrace pico = trace_every_op(/*on_lwk=*/true, /*register_fast_path=*/true);
  EXPECT_EQ(pico.offloads, (std::vector<std::uint64_t>{1, 0, 0, 1, 1, 1, 1, 1}));
  EXPECT_EQ(pico.driver, (Counts{{"open", 1}, {"ioctl", 1}, {"mmap", 1},
                                  {"read", 1}, {"lseek", 1}, {"close", 1}}));
  EXPECT_EQ(pico.port, (Counts{{"writev", 1}, {"ioctl", 1}}));
  EXPECT_EQ(pico.records, every_call);
}

/// A driver that writes only the two file ops every driver must have.
class OpenCloseOnly final : public CharDevice {
 public:
  explicit OpenCloseOnly(LinuxKernel& linux_kernel) { linux_kernel.register_device(*this); }
  std::string dev_name() const override { return "/dev/open_close_only"; }
  sim::Task<Result<long>> open(OpenFile&) override { co_return 0L; }
  sim::Task<Result<long>> close(OpenFile&) override { co_return 0L; }
};

TEST(Process, FileOpsADriverLacksReturnEinval) {
  ProcFixture f;
  OpenCloseOnly dev(f.linux_kernel);
  Process lnx(f.linux_kernel, f.phys, 0, 0, 31);
  Process lwk(f.mck, f.phys, 0, 1, 32);
  for (Process* proc : {&lnx, &lwk}) {
    sim::spawn(f.engine, [](Process& p) -> sim::Task<> {
      auto fd = co_await p.open("/dev/open_close_only");
      CO_ASSERT_TRUE(fd.ok());
      auto w = co_await p.writev(*fd, std::vector<IoVec>{});
      EXPECT_EQ(w.error(), Errno::einval);
      auto i = co_await p.ioctl(*fd, 1, nullptr);
      EXPECT_EQ(i.error(), Errno::einval);
      auto m = co_await p.mmap_dev(*fd, 4096, 0);
      EXPECT_EQ(m.error(), Errno::einval);
      auto r = co_await p.read_fd(*fd, 64);
      EXPECT_EQ(r.error(), Errno::einval);
      auto s = co_await p.lseek(*fd, 0, 0);
      EXPECT_EQ(s.error(), Errno::einval);
      auto c = co_await p.close_fd(*fd);
      EXPECT_TRUE(c.ok());
    }(*proc));
  }
  f.engine.run();
  // The McKernel process's EINVALs came back from the proxy: its open, five
  // failed calls and close were one offload each.
  EXPECT_EQ(f.ihk.offload_count(), 7u);
}

TEST(Process, NanosleepRecordsKernelTime) {
  ProcFixture f;
  Process proc(f.mck, f.phys, 0, 0, 7);
  sim::spawn(f.engine, [](Process& p) -> sim::Task<> {
    co_await p.nanosleep(from_us(5));
  }(proc));
  f.engine.run();
  EXPECT_EQ(f.mck.profiler().count_of("nanosleep"), 1u);
  EXPECT_GE(f.mck.profiler().total_us_of("nanosleep"), 5.0);
}

TEST(Process, LwkBackingIsPinnedContiguous) {
  ProcFixture f;
  Process proc(f.mck, f.phys, 0, 0, 8);
  sim::spawn(f.engine, [](Process& p) -> sim::Task<> {
    auto va = co_await p.mmap_anon(4_MiB);
    CO_ASSERT_TRUE(va.ok());
    const mem::Vma* vma = p.as().find_vma(*va);
    EXPECT_NE(vma, nullptr);
    EXPECT_TRUE(vma->pinned);
    EXPECT_GT(p.as().large_page_fraction(), 0.9);
  }(proc));
  f.engine.run();
}

TEST(ConfigValidate, DefaultsAreValidInBothTransports) {
  Config cfg;
  EXPECT_TRUE(cfg.validate().ok());
  cfg.ikc_mode = IkcMode::ring;
  EXPECT_TRUE(cfg.validate().ok());
}

TEST(ConfigValidate, RingModeWithoutServiceCpusIsEinval) {
  Config cfg;
  cfg.ikc_mode = IkcMode::ring;
  cfg.linux_service_cpus = 0;
  std::string why;
  const Status s = cfg.validate(&why);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error(), Errno::einval);
  EXPECT_NE(why.find("linux_service_cpus"), std::string::npos) << why;
  // Direct mode has no service loops to starve; the same knob is fine there.
  cfg.ikc_mode = IkcMode::direct;
  EXPECT_TRUE(cfg.validate().ok());
}

TEST(ConfigValidate, RejectsDegenerateRingAndAdaptiveKnobs) {
  Config cfg;
  cfg.ikc_mode = IkcMode::ring;
  cfg.ikc_ring_depth = 0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = Config{};
  cfg.ikc_mode = IkcMode::ring;
  cfg.ikc_reply_depth = 0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = Config{};
  cfg.ikc_mode = IkcMode::ring;
  cfg.ikc_adaptive_alpha = 0.0;
  EXPECT_FALSE(cfg.validate().ok());
  cfg = Config{};
  cfg.ikc_mode = IkcMode::ring;
  cfg.ikc_adaptive_headroom = 0.5;
  EXPECT_FALSE(cfg.validate().ok());
}

TEST(ConfigValidate, RejectsDegenerateQosKnobs) {
  Config cfg;
  cfg.ikc_mode = IkcMode::ring;
  cfg.ikc_job_weights = {1.0, 0.0};  // a zero-weight job would never drain
  EXPECT_FALSE(cfg.validate().ok());
  cfg.ikc_job_weights = {1.0, -2.0};
  EXPECT_FALSE(cfg.validate().ok());
  cfg.ikc_job_weights = {2.0, 1.0};
  EXPECT_TRUE(cfg.validate().ok());

  cfg = Config{};
  cfg.ikc_mode = IkcMode::ring;
  cfg.ikc_job_credits = -1;
  EXPECT_FALSE(cfg.validate().ok());
  cfg.ikc_job_credits = 2;
  cfg.ikc_credit_retries = -1;
  EXPECT_FALSE(cfg.validate().ok());
  cfg.ikc_credit_retries = 0;  // 0 retries is a valid hard-fail policy
  EXPECT_TRUE(cfg.validate().ok());
  cfg.ikc_credit_backoff = from_us(-1);
  EXPECT_FALSE(cfg.validate().ok());

  cfg = Config{};
  cfg.pico_extent_quota_files = -1;  // checked in every transport mode
  EXPECT_FALSE(cfg.validate().ok());
  cfg.pico_extent_quota_files = 0;
  EXPECT_TRUE(cfg.validate().ok());
}

TEST(ConfigValidate, TransportConstructionThrowsOnInvalidConfig) {
  sim::Engine engine;
  Config cfg;
  cfg.ikc_mode = IkcMode::ring;
  cfg.linux_service_cpus = 0;
  // LinuxKernel itself still boots (Linux runs with zero reserved service
  // CPUs in linux mode); the *transport* is what must refuse the config.
  LinuxKernel linux_kernel{engine, Config{}};
  Samples queueing;
  EXPECT_THROW(ikc::IkcTransport(engine, cfg, linux_kernel.service_cpus(),
                                 linux_kernel.profiler(), queueing,
                                 linux_kernel.spinlock_abi()),
               std::invalid_argument);
  try {
    ikc::IkcTransport t(engine, cfg, linux_kernel.service_cpus(), linux_kernel.profiler(),
                        queueing, linux_kernel.spinlock_abi());
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("linux_service_cpus"), std::string::npos)
        << e.what();
  }
}

// --- /proc/pd/jobs introspection (ISSUE 9 satellite) ----------------------

TEST(ProcJobs, SnapshotReadsThroughVfsAndRewindRerenders) {
  ProcFixture f;
  ProcJobsFile jobs(f.linux_kernel, f.ihk.transport());
  // Two LWK tenants generate job-tagged offload traffic (the open/close of
  // the proc file itself rides the offload path).
  Process pa(f.mck, f.phys, 0, 0, 11);
  Process pb(f.mck, f.phys, 0, 1, 12);
  pa.set_job(1);
  pb.set_job(2);
  // A native Linux reader pages through the table without offload noise.
  Process reader(f.linux_kernel, f.phys, 0, 2, 13);
  sim::spawn(f.engine,
             [](ProcJobsFile&, Process& a, Process& b, Process& rd) -> sim::Task<> {
    for (Process* p : {&a, &b}) {
      auto fd = co_await p->open("/proc/pd/jobs");
      CO_ASSERT_TRUE(fd.ok());
      CO_ASSERT_TRUE((co_await p->close_fd(*fd)).ok());
    }

    auto fd = co_await rd.open("/proc/pd/jobs");
    CO_ASSERT_TRUE(fd.ok());
    const std::string* snap = ProcJobsFile::snapshot(*rd.file(*fd));
    CO_ASSERT_TRUE(snap != nullptr);
    EXPECT_NE(snap->find("job weight submitted"), std::string::npos);
    EXPECT_NE(snap->find("\n1 1.00 "), std::string::npos) << *snap;
    EXPECT_NE(snap->find("\n2 1.00 "), std::string::npos) << *snap;

    // The read syscall consumes the snapshot in chunks and hits EOF at
    // exactly its size — the seq_file contract on the simulated VFS.
    std::uint64_t total = 0;
    for (;;) {
      auto n = co_await rd.read_fd(*fd, 64);
      CO_ASSERT_TRUE(n.ok());
      if (*n == 0) break;
      EXPECT_LE(*n, 64L);
      total += static_cast<std::uint64_t>(*n);
    }
    EXPECT_EQ(total, snap->size());

    // Rewind-to-start re-renders (procfs re-read); any other seek is ESPIPE.
    auto bad = co_await rd.lseek(*fd, 8, 0);
    EXPECT_EQ(bad.error(), Errno::espipe);
    CO_ASSERT_TRUE((co_await rd.lseek(*fd, 0, 0)).ok());
    auto again = co_await rd.read_fd(*fd, 4096);
    CO_ASSERT_TRUE(again.ok());
    EXPECT_GT(*again, 0L) << "rewind must restart the stream";

    // Read-only surface.
    auto w = co_await rd.writev(*fd, std::vector<IoVec>{});
    EXPECT_EQ(w.error(), Errno::einval);
    CO_ASSERT_TRUE((co_await rd.close_fd(*fd)).ok());
  }(jobs, pa, pb, reader));
  f.engine.run();
}

TEST(ProcJobs, RenderTracksCompletedOffloads) {
  ProcFixture f;
  ProcJobsFile jobs(f.linux_kernel, f.ihk.transport());
  Process pa(f.mck, f.phys, 0, 0, 21);
  pa.set_job(7);
  sim::spawn(f.engine, [](Process& p) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) {
      auto fd = co_await p.open("/proc/pd/jobs");
      CO_ASSERT_TRUE(fd.ok());
      CO_ASSERT_TRUE((co_await p.close_fd(*fd)).ok());
    }
  }(pa));
  f.engine.run();
  const ikc::IkcTransport::JobStats* st = f.ihk.transport().job_stats(7);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->submitted, 6u);  // 3 opens + 3 closes
  EXPECT_EQ(st->completed, 6u);
  const std::string text = jobs.render();
  EXPECT_NE(text.find("\n7 1.00 6 6 "), std::string::npos) << text;
}

}  // namespace
}  // namespace pd::os
