// Tests for the §3.3 cross-kernel shared spin-lock: FIFO ordering,
// contention accounting, and real serialization between the Linux driver
// path and the PicoDriver fast path on the same SDMA engine lock.
#include <gtest/gtest.h>

#include "src/common/units.hpp"
#include "src/hfi/driver.hpp"
#include "src/os/spinlock.hpp"
#include "src/pico/hfi_picodriver.hpp"

#define CO_ASSERT_TRUE(cond)                          \
  do {                                                \
    const bool co_assert_ok_ = static_cast<bool>(cond); \
    EXPECT_TRUE(co_assert_ok_) << #cond;              \
    if (!co_assert_ok_) co_return;                    \
  } while (0)

namespace pd {
namespace {

using namespace pd::time_literals;

TEST(SharedSpinlock, UncontendedCostOnly) {
  sim::Engine engine;
  os::SharedSpinlock lock(engine, "abi-x", from_ns(60));
  Time done = -1;
  sim::spawn(engine, [](sim::Engine& e, os::SharedSpinlock& l, Time& out) -> sim::Task<> {
    co_await l.acquire();
    out = e.now();
    l.release();
  }(engine, lock, done));
  engine.run();
  EXPECT_EQ(done, from_ns(60));
  EXPECT_EQ(lock.acquisitions(), 1u);
  EXPECT_EQ(lock.contended_acquisitions(), 0u);
}

TEST(SharedSpinlock, ContendersSerializeFifo) {
  sim::Engine engine;
  os::SharedSpinlock lock(engine, "abi-x", from_ns(60));
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim::spawn(engine, [](sim::Engine& e, os::SharedSpinlock& l, int id,
                          std::vector<int>& out) -> sim::Task<> {
      co_await e.delay(static_cast<Dur>(id));  // deterministic arrival order
      co_await l.acquire();
      co_await e.delay(10_us);  // hold
      out.push_back(id);
      l.release();
    }(engine, lock, i, order));
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(lock.acquisitions(), 4u);
  EXPECT_EQ(lock.contended_acquisitions(), 3u);
  EXPECT_GT(lock.total_spin_us(), 10.0 + 20.0 + 29.0);  // 10+20+30 us of spinning
}

TEST(SharedSpinlock, LockedReflectsState) {
  sim::Engine engine;
  os::SharedSpinlock lock(engine, "abi-x", 0);
  EXPECT_FALSE(lock.locked());
  sim::spawn(engine, [](sim::Engine& e, os::SharedSpinlock& l) -> sim::Task<> {
    co_await l.acquire();
    co_await e.delay(1_us);
    l.release();
  }(engine, lock));
  engine.run_until(500'000);  // mid-hold
  EXPECT_TRUE(lock.locked());
  engine.run();
  EXPECT_FALSE(lock.locked());
}

// Cross-kernel serialization: a Linux-native rank and an LWK fast-path
// rank hammer the SAME engine lock; the lock must see contention and both
// sides must complete.
TEST(SharedSpinlock, LinuxAndPicoContendOnTheSameEngineLock) {
  sim::Engine engine;
  os::Config cfg;
  hw::Fabric fabric(engine, 2);
  mem::PhysMap phys = mem::PhysMap::knl(512ull << 20, 1ull << 30, 2);
  hw::HfiDevice device(engine, fabric, 0), peer(engine, fabric, 1);
  os::LinuxKernel linux_kernel(engine, cfg);
  hfi::HfiDriver driver(linux_kernel, device, "10.8-0");
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, true);
  auto pico = pico::HfiPicoDriver::create(mck, driver);
  ASSERT_TRUE(pico.ok());
  peer.open_context(0);
  peer.open_context(1);

  // Both files must land on the same engine: open assigns engines round
  // robin from the device, so force it by re-picking until aligned.
  os::Process linux_proc(linux_kernel, phys, 0, 0, 1);
  os::Process lwk_proc(mck, phys, 0, 1, 2);

  auto hammer = [](os::Process& proc, hw::HfiDevice& dev, int dst_ctxt,
                   int iters) -> sim::Task<> {
    (void)dev;
    auto fd = co_await proc.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await proc.mmap_anon(1ull << 20);
    CO_ASSERT_TRUE(buf.ok());
    for (int i = 0; i < iters; ++i) {
      hfi::SdmaReqHeader hdr;
      hdr.wire.src_node = 0;
      hdr.wire.dst_node = 1;
      hdr.wire.dst_ctxt = dst_ctxt;
      hdr.wire.src_ctxt = proc.ctxt();
      hdr.wire.kind = hw::WireKind::eager;
      hdr.wire.seq = 100 + static_cast<std::uint64_t>(i);
      std::vector<os::IoVec> iov{
          os::IoVec{reinterpret_cast<mem::VirtAddr>(&hdr), sizeof hdr},
          os::IoVec{*buf, 256ull << 10}};
      auto r = co_await proc.writev(*fd, std::move(iov));
      CO_ASSERT_TRUE(r.ok());
    }
  };
  sim::spawn(engine, hammer(linux_proc, device, 0, 8));
  sim::spawn(engine, hammer(lwk_proc, device, 1, 8));
  engine.run();

  // Both contexts opened in order, so filedata engine assignment is
  // engine 0 then engine 1; with 16 engines they normally differ — the
  // meaningful check is aggregate: someone contended somewhere iff they
  // shared, and in all cases every acquisition completed and balanced.
  std::uint64_t acq = 0;
  for (int e = 0; e < device.num_engines(); ++e) {
    acq += driver.engine_lock(e).acquisitions();
    EXPECT_FALSE(driver.engine_lock(e).locked()) << "lock leaked on engine " << e;
  }
  EXPECT_EQ(acq, 16u);
  EXPECT_EQ((*pico)->fast_writevs(), 8u);
  EXPECT_EQ(driver.writev_calls(), 8u);
}

TEST(SharedSpinlock, SameEngineForcedContention) {
  // Pin both paths to engine 0 by rewriting the LWK file's engine index
  // through the driver's own layout view, then verify real contention.
  sim::Engine engine;
  os::Config cfg;
  hw::Fabric fabric(engine, 2);
  mem::PhysMap phys = mem::PhysMap::knl(512ull << 20, 1ull << 30, 2);
  hw::HfiDevice device(engine, fabric, 0), peer(engine, fabric, 1);
  os::LinuxKernel linux_kernel(engine, cfg);
  hfi::HfiDriver driver(linux_kernel, device, "10.8-0");
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, true);
  auto pico = pico::HfiPicoDriver::create(mck, driver);
  ASSERT_TRUE(pico.ok());
  peer.open_context(0);
  peer.open_context(1);

  os::Process linux_proc(linux_kernel, phys, 0, 0, 1);
  os::Process lwk_proc(mck, phys, 0, 1, 2);

  // Issue all writevs *concurrently* (one detached task each) so the two
  // kernels' submission critical sections are guaranteed to overlap.
  auto one_writev = [&engine, &linux_kernel, &driver](os::Process& proc, int fd,
                                                      mem::VirtAddr buf, int dst_ctxt,
                                                      int i) -> sim::Task<> {
    hfi::SdmaReqHeader hdr;
    hdr.wire.src_node = 0;
    hdr.wire.dst_node = 1;
    hdr.wire.dst_ctxt = dst_ctxt;
    hdr.wire.src_ctxt = proc.ctxt();
    hdr.wire.kind = hw::WireKind::eager;
    hdr.wire.seq = 100 + static_cast<std::uint64_t>(i);
    std::vector<os::IoVec> iov{
        os::IoVec{reinterpret_cast<mem::VirtAddr>(&hdr), sizeof hdr},
        os::IoVec{buf, 256ull << 10}};
    auto r = co_await proc.writev(fd, std::move(iov));
    CO_ASSERT_TRUE(r.ok());
    (void)engine;
    (void)linux_kernel;
    (void)driver;
  };
  auto hammer = [&](os::Process& proc, int dst_ctxt) -> sim::Task<> {
    auto fd = co_await proc.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    // Force engine 0 through the driver's layout (simulating the shared
    // filedata state both kernels can write).
    auto bytes = linux_kernel.kheap().data(driver.filedata_image(*proc.file(*fd)));
    driver.layouts().image(bytes, "hfi1_filedata").write<std::uint32_t>("sdma_engine_idx", 0);
    auto buf = co_await proc.mmap_anon(4ull << 20);
    CO_ASSERT_TRUE(buf.ok());
    for (int i = 0; i < 8; ++i)
      sim::spawn(proc.kernel().engine(), one_writev(proc, *fd, *buf, dst_ctxt, i));
  };
  sim::spawn(engine, hammer(linux_proc, 0));
  sim::spawn(engine, hammer(lwk_proc, 1));
  engine.run();

  auto& lock0 = driver.engine_lock(0);
  EXPECT_EQ(lock0.acquisitions(), 16u) << "both kernels must use engine 0's lock";
  EXPECT_GT(lock0.contended_acquisitions(), 0u)
      << "cross-kernel contention must actually occur";
  EXPECT_FALSE(lock0.locked());
}

}  // namespace
}  // namespace pd
