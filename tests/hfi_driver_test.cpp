// Driver-level unit tests: file-operation edge cases, context lifecycle,
// and the version-independence property (the §3.2 payoff: behaviour and
// performance are identical across vendor releases with shuffled layouts,
// because the fast path binds offsets from debug info).
#include <gtest/gtest.h>

#include "src/apps/proxies.hpp"
#include "src/common/units.hpp"
#include "src/hfi/driver.hpp"

#define CO_ASSERT_TRUE(cond)                          \
  do {                                                \
    const bool co_assert_ok_ = static_cast<bool>(cond); \
    EXPECT_TRUE(co_assert_ok_) << #cond;              \
    if (!co_assert_ok_) co_return;                    \
  } while (0)

namespace pd::hfi {
namespace {

using namespace pd::time_literals;

struct DriverFixture {
  sim::Engine engine;
  os::Config cfg;
  hw::Fabric fabric{engine, 1};
  mem::PhysMap phys = mem::PhysMap::knl(256_MiB, 1ull << 30, 2);
  hw::HfiDevice device{engine, fabric, 0};
  os::LinuxKernel linux_kernel{engine, cfg};
  HfiDriver driver{linux_kernel, device, "10.8-0"};
};

TEST(HfiDriverOps, DuplicateContextOpenIsBusy) {
  DriverFixture f;
  os::Process a(f.linux_kernel, f.phys, 0, /*ctxt=*/5, 1);
  os::Process b(f.linux_kernel, f.phys, 0, /*ctxt=*/5, 2);  // same context
  sim::spawn(f.engine, [](os::Process& p1, os::Process& p2) -> sim::Task<> {
    auto fd1 = co_await p1.open(kDeviceName);
    CO_ASSERT_TRUE(fd1.ok());
    auto fd2 = co_await p2.open(kDeviceName);
    EXPECT_EQ(fd2.error(), Errno::ebusy);
  }(a, b));
  f.engine.run();
}

TEST(HfiDriverOps, CloseReleasesContextAndTids) {
  DriverFixture f;
  os::Process proc(f.linux_kernel, f.phys, 0, 0, 3);
  sim::spawn(f.engine, [](DriverFixture& fx, os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(64_KiB);
    CO_ASSERT_TRUE(buf.ok());
    TidUpdateArgs args;
    args.vaddr = *buf;
    args.length = 64_KiB;
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, kTidUpdate, &args)).ok());
    EXPECT_GT(fx.device.rcv_array().in_use(), 0u);
    EXPECT_GT(p.as().pinned_frame_count(), 0u);
    // Close without TID_FREE: the driver must clean up (unprogram, unpin).
    CO_ASSERT_TRUE((co_await p.close_fd(*fd)).ok());
    EXPECT_EQ(fx.device.rcv_array().in_use(), 0u);
    EXPECT_EQ(p.as().pinned_frame_count(), 0u);
    EXPECT_FALSE(fx.device.context_open(0));
    // The context is reusable after close.
    auto fd2 = co_await p.open(kDeviceName);
    EXPECT_TRUE(fd2.ok());
  }(f, proc));
  f.engine.run();
}

/// Like DriverFixture, but with a caller-supplied Config and an RcvArray
/// small enough (256 entries / 64 contexts = 4 per context) that the
/// per-context TID quota is reachable with a handful of pages.
struct QuotaFixture {
  explicit QuotaFixture(os::Config c) : cfg(std::move(c)) {}
  static hw::HfiConfig small_rcv() {
    hw::HfiConfig hc;
    hc.rcv_array_entries = 256;
    return hc;
  }
  sim::Engine engine;
  os::Config cfg;
  hw::Fabric fabric{engine, 1};
  mem::PhysMap phys = mem::PhysMap::knl(256_MiB, 1ull << 30, 2);
  hw::HfiDevice device{engine, fabric, 0, small_rcv()};
  os::LinuxKernel linux_kernel{engine, cfg};
  HfiDriver driver{linux_kernel, device, "10.8-0"};
};

TEST(HfiDriverOps, TidQuotaEvictionRecyclesOwnShareOnly) {
  // Registration-cache semantics (hfi_tid_quota_evict): a tenant context
  // at its RcvArray quota makes room by unprogramming its *own* LRU entry.
  // A neighbour context's entries and pins must be completely untouched.
  os::Config cfg;
  cfg.hfi_tid_quota_evict = true;
  QuotaFixture f(cfg);
  os::Process tenant(f.linux_kernel, f.phys, 0, /*ctxt=*/0, 1);
  os::Process neighbour(f.linux_kernel, f.phys, 0, /*ctxt=*/1, 2);
  sim::spawn(f.engine, [](QuotaFixture& fx, os::Process& a, os::Process& b) -> sim::Task<> {
    auto fda = co_await a.open(kDeviceName);
    CO_ASSERT_TRUE(fda.ok());
    auto fdb = co_await b.open(kDeviceName);
    CO_ASSERT_TRUE(fdb.ok());

    auto bbuf = co_await b.mmap_anon(8_KiB);
    CO_ASSERT_TRUE(bbuf.ok());
    TidUpdateArgs bargs;
    bargs.vaddr = *bbuf;
    bargs.length = 8_KiB;
    CO_ASSERT_TRUE((co_await b.ioctl(*fdb, kTidUpdate, &bargs)).ok());
    CO_ASSERT_TRUE(bargs.tids.size() == 2u);

    auto abuf = co_await a.mmap_anon(16_KiB);  // exactly the 4-entry quota
    CO_ASSERT_TRUE(abuf.ok());
    TidUpdateArgs aargs;
    aargs.vaddr = *abuf;
    aargs.length = 16_KiB;
    CO_ASSERT_TRUE((co_await a.ioctl(*fda, kTidUpdate, &aargs)).ok());
    CO_ASSERT_TRUE(aargs.tids.size() == 4u);
    EXPECT_EQ(fx.device.rcv_array().in_use(), 6u);
    const hw::TidEntry* oldest = fx.device.rcv_array().entry(aargs.tids[0]);
    CO_ASSERT_TRUE(oldest != nullptr);
    const mem::PhysAddr victim = oldest->pa;

    // One page over quota: the tenant's own oldest entry must make room.
    auto abuf2 = co_await a.mmap_anon(4_KiB);
    CO_ASSERT_TRUE(abuf2.ok());
    TidUpdateArgs aargs2;
    aargs2.vaddr = *abuf2;
    aargs2.length = 4_KiB;
    CO_ASSERT_TRUE((co_await a.ioctl(*fda, kTidUpdate, &aargs2)).ok());

    EXPECT_EQ(fx.linux_kernel.profiler().counter("hfi.tid.quota_evict"), 1u);
    EXPECT_EQ(fx.device.rcv_array().in_use(), 6u) << "net share unchanged: -1 LRU, +1 new";
    // The freed TID may already hold the new page: what must be gone is
    // the victim's page, from the RcvArray and from the pin accounting.
    const hw::TidEntry* recycled = fx.device.rcv_array().entry(aargs.tids[0]);
    EXPECT_TRUE(recycled == nullptr || recycled->pa != victim)
        << "the tenant's oldest entry is the eviction victim";
    EXPECT_FALSE(a.as().is_pinned(victim)) << "the victim's page is put";
    for (std::size_t i = 1; i < aargs.tids.size(); ++i) {
      const auto* e = fx.device.rcv_array().entry(aargs.tids[i]);
      CO_ASSERT_TRUE(e != nullptr);
      EXPECT_TRUE(e->valid && e->owner_ctxt == 0) << "younger own entry " << i << " survives";
    }
    for (const auto tid : bargs.tids) {
      const auto* e = fx.device.rcv_array().entry(tid);
      CO_ASSERT_TRUE(e != nullptr);
      EXPECT_TRUE(e->valid && e->owner_ctxt == 1)
          << "neighbour entry " << tid << " must never be an eviction candidate";
    }
    EXPECT_EQ(a.as().pinned_frame_count(), 4u) << "evicted page unpinned, new page pinned";
    EXPECT_EQ(b.as().pinned_frame_count(), 2u) << "neighbour pins untouched";
  }(f, tenant, neighbour));
  f.engine.run();
}

TEST(HfiDriverOps, TidQuotaWithoutEvictionStaysEnospc) {
  // Default policy (hfi_tid_quota_evict off): at quota the registration
  // fails with the transient ENOSPC PSM's TID backoff depends on — no
  // eviction, no leaked pins from the failed call.
  QuotaFixture f(os::Config{});
  os::Process proc(f.linux_kernel, f.phys, 0, 0, 1);
  sim::spawn(f.engine, [](QuotaFixture& fx, os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(16_KiB);
    CO_ASSERT_TRUE(buf.ok());
    TidUpdateArgs args;
    args.vaddr = *buf;
    args.length = 16_KiB;
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, kTidUpdate, &args)).ok());
    auto buf2 = co_await p.mmap_anon(4_KiB);
    CO_ASSERT_TRUE(buf2.ok());
    TidUpdateArgs args2;
    args2.vaddr = *buf2;
    args2.length = 4_KiB;
    auto r = co_await p.ioctl(*fd, kTidUpdate, &args2);
    EXPECT_EQ(r.error(), Errno::enospc);
    EXPECT_EQ(fx.linux_kernel.profiler().counter("hfi.tid.quota_evict"), 0u);
    EXPECT_EQ(fx.device.rcv_array().in_use(), 4u);
    EXPECT_EQ(p.as().pinned_frame_count(), 4u) << "the rejected call must unpin its pages";
  }(f, proc));
  f.engine.run();
}

TEST(HfiDriverOps, TidQuotaEvictionTakesOldestLiveRegistration) {
  // Freed registrations leave the LRU order: after the oldest and a middle
  // entry are freed, going over quota evicts the oldest entry still live.
  os::Config cfg;
  cfg.hfi_tid_quota_evict = true;
  QuotaFixture f(cfg);
  os::Process proc(f.linux_kernel, f.phys, 0, 0, 1);
  sim::spawn(f.engine, [](QuotaFixture& fx, os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto update = [](os::Process& pr, int file, std::uint64_t len)
        -> sim::Task<Result<std::pair<mem::VirtAddr, std::vector<std::uint32_t>>>> {
      auto buf = co_await pr.mmap_anon(len);
      if (!buf.ok()) co_return buf.error();
      TidUpdateArgs args;
      args.vaddr = *buf;
      args.length = len;
      auto r = co_await pr.ioctl(file, kTidUpdate, &args);
      if (!r.ok()) co_return r.error();
      co_return std::pair{*buf, args.tids};
    };
    auto first = co_await update(p, *fd, 16_KiB);  // t0..t3, the whole quota
    CO_ASSERT_TRUE(first.ok() && first->second.size() == 4u);
    const auto& t = first->second;
    const mem::PhysAddr frame1 = p.as().translate(first->first + 4_KiB)->pa;
    TidFreeArgs free_args;
    free_args.tids = {t[0], t[2]};  // the oldest and a middle registration
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, kTidFree, &free_args)).ok());
    EXPECT_EQ(p.as().pinned_frame_count(), 2u);

    auto second = co_await update(p, *fd, 8_KiB);  // fits: 2 live + 2
    CO_ASSERT_TRUE(second.ok() && second->second.size() == 2u);
    EXPECT_EQ(fx.linux_kernel.profiler().counter("hfi.tid.quota_evict"), 0u);
    EXPECT_TRUE(p.as().is_pinned(frame1));

    auto third = co_await update(p, *fd, 4_KiB);  // one over quota
    CO_ASSERT_TRUE(third.ok() && third->second.size() == 1u);
    EXPECT_EQ(fx.linux_kernel.profiler().counter("hfi.tid.quota_evict"), 1u);
    const hw::TidEntry* t1 = fx.device.rcv_array().entry(t[1]);
    EXPECT_TRUE(t1 == nullptr || t1->pa != frame1)
        << "t1 is the oldest live registration once t0 is freed";
    EXPECT_NE(fx.device.rcv_array().entry(t[3]), nullptr);
    for (const auto tid : second->second) EXPECT_NE(fx.device.rcv_array().entry(tid), nullptr);
    EXPECT_NE(fx.device.rcv_array().entry(third->second[0]), nullptr);
    EXPECT_EQ(fx.device.rcv_array().in_use(), 4u);
    EXPECT_FALSE(p.as().is_pinned(frame1)) << "the victim's frame is put";
    EXPECT_EQ(p.as().pinned_frame_count(), 4u);
    CO_ASSERT_TRUE((co_await p.close_fd(*fd)).ok());
    EXPECT_EQ(p.as().pinned_frame_count(), 0u);
  }(f, proc));
  f.engine.run();
}

TEST(HfiDriverOps, TidFreeFailingPartwayReleasesWhatItFreed) {
  // hfi1's user_exp_rcv_clear semantics: TID_FREE stops with EINVAL at the
  // first TID it cannot unprogram, and the entries freed before it give
  // their share of the quota back.
  QuotaFixture f(os::Config{});
  os::Process proc(f.linux_kernel, f.phys, 0, 0, 1);
  sim::spawn(f.engine, [](QuotaFixture& fx, os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(16_KiB);
    CO_ASSERT_TRUE(buf.ok());
    TidUpdateArgs args;
    args.vaddr = *buf;
    args.length = 16_KiB;
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, kTidUpdate, &args)).ok());
    CO_ASSERT_TRUE(args.tids.size() == 4u);
    TidFreeArgs free_args;
    free_args.tids = {args.tids[0], args.tids[1], 255};  // 255 is not owned
    EXPECT_EQ((co_await p.ioctl(*fd, kTidFree, &free_args)).error(), Errno::einval);
    EXPECT_EQ(fx.device.rcv_array().in_use(), 2u);
    EXPECT_EQ(p.as().pinned_frame_count(), 2u);

    auto buf2 = co_await p.mmap_anon(8_KiB);
    CO_ASSERT_TRUE(buf2.ok());
    TidUpdateArgs args2;
    args2.vaddr = *buf2;
    args2.length = 8_KiB;
    auto r = co_await p.ioctl(*fd, kTidUpdate, &args2);
    EXPECT_TRUE(r.ok()) << "two freed entries leave room for two pages";
    EXPECT_EQ(fx.device.rcv_array().in_use(), 4u);
    EXPECT_EQ(p.as().pinned_frame_count(), 4u);
  }(f, proc));
  f.engine.run();
}

TEST(HfiDriverOps, MmapBoundsChecked) {
  DriverFixture f;
  os::Process proc(f.linux_kernel, f.phys, 0, 0, 4);
  sim::spawn(f.engine, [](DriverFixture& fx, os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto ok = co_await p.mmap_dev(*fd, 64 * 1024, 0);
    EXPECT_TRUE(ok.ok());
    auto beyond = co_await p.mmap_dev(*fd, 64 * 1024, fx.device.config().csr_size);
    EXPECT_EQ(beyond.error(), Errno::einval);
  }(f, proc));
  f.engine.run();
}

TEST(HfiDriverOps, LseekValidatesArguments) {
  DriverFixture f;
  os::Process proc(f.linux_kernel, f.phys, 0, 0, 5);
  sim::spawn(f.engine, [](os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto ok = co_await p.lseek(*fd, 4096, 0);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(*ok, 4096L);
    EXPECT_EQ((co_await p.lseek(*fd, -1, 0)).error(), Errno::einval);
    EXPECT_EQ((co_await p.lseek(*fd, 0, 7)).error(), Errno::einval);
  }(proc));
  f.engine.run();
}

TEST(HfiDriverOps, WritevNeedsHeaderAndData) {
  DriverFixture f;
  os::Process proc(f.linux_kernel, f.phys, 0, 0, 6);
  sim::spawn(f.engine, [](os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    SdmaReqHeader hdr;
    std::vector<os::IoVec> only_header{
        os::IoVec{reinterpret_cast<mem::VirtAddr>(&hdr), sizeof hdr}};
    EXPECT_EQ((co_await p.writev(*fd, std::move(only_header))).error(), Errno::einval);
  }(proc));
  f.engine.run();
}

TEST(HfiDriverOps, UnknownIoctlRejected) {
  DriverFixture f;
  os::Process proc(f.linux_kernel, f.phys, 0, 0, 7);
  sim::spawn(f.engine, [](os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    EXPECT_EQ((co_await p.ioctl(*fd, 0x9999, nullptr)).error(), Errno::einval);
  }(proc));
  f.engine.run();
}

// --- the §3.2 payoff ---------------------------------------------------------

TEST(VersionIndependence, PerformanceIdenticalAcrossDriverReleases) {
  // Run the same workload against all three shipped driver releases. The
  // layouts shift (verified elsewhere) — but because the PicoDriver binds
  // offsets from debug info, the simulation must be bit-identical.
  auto run_version = [](const char* version) {
    mpirt::ClusterOptions copts;
    copts.nodes = 2;
    copts.mode = os::OsMode::mckernel_hfi;
    copts.driver_version = version;
    copts.mcdram_bytes = 256ull << 20;
    copts.ddr_bytes = 1ull << 30;
    mpirt::Cluster cluster(copts);
    mpirt::WorldOptions wopts;
    wopts.ranks_per_node = 4;
    mpirt::MpiWorld world(cluster, wopts);
    apps::UmtParams umt;
    umt.steps = 1;
    world.run([umt](mpirt::Rank& r) { return apps::umt_rank(r, umt); });
    return std::pair<Dur, std::uint64_t>(world.max_solve(),
                                         cluster.engine().events_processed());
  };
  const auto v108 = run_version("10.8-0");
  const auto v109 = run_version("10.9-5");
  const auto v110 = run_version("11.0-2");
  EXPECT_EQ(v108, v109) << "porting effort across releases must be zero";
  EXPECT_EQ(v109, v110);
  EXPECT_GT(v108.first, 0);
}

}  // namespace
}  // namespace pd::hfi
