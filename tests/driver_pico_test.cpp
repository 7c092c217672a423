// Integration tests: HFI Linux driver + IHK offloading + HFI PicoDriver.
// Exercises the paper's §3 mechanisms end to end on a two-node mini
// cluster: DWARF-bound offsets vs driver layouts, fast-path vs native vs
// offloaded writev, descriptor sizes, TID registration, cross-kernel
// callbacks and remote frees.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/common/units.hpp"
#include "src/hfi/driver.hpp"
#include "src/pico/hfi_picodriver.hpp"
#include "src/sim/sync.hpp"

// ASSERT_* returns `void`, which is illegal inside a coroutine; this is the
// coroutine-safe equivalent (record failure, co_return).
#define CO_ASSERT_TRUE(cond)                          \
  do {                                                \
    const bool co_assert_ok_ = static_cast<bool>(cond); \
    EXPECT_TRUE(co_assert_ok_) << #cond;              \
    if (!co_assert_ok_) co_return;                    \
  } while (0)

namespace pd {
namespace {

using namespace pd::time_literals;

struct MiniNode {
  std::unique_ptr<mem::PhysMap> phys;
  std::unique_ptr<hw::HfiDevice> device;
  std::unique_ptr<os::LinuxKernel> linux_kernel;
  std::unique_ptr<os::Ihk> ihk;
  std::unique_ptr<os::McKernel> mck;
  std::unique_ptr<hfi::HfiDriver> driver;
  std::unique_ptr<pico::HfiPicoDriver> pico;
};

struct MiniCluster {
  sim::Engine engine;
  os::Config cfg;
  std::unique_ptr<hw::Fabric> fabric;
  std::vector<MiniNode> nodes;

  explicit MiniCluster(int n, os::OsMode mode, const std::string& version = "10.8-0")
      : MiniCluster(n, mode, os::Config{}, hw::HfiConfig{}, version) {}

  MiniCluster(int n, os::OsMode mode, os::Config base, hw::HfiConfig hw_cfg,
              const std::string& version = "10.8-0")
      : cfg(std::move(base)) {
    fabric = std::make_unique<hw::Fabric>(engine, n);
    for (int i = 0; i < n; ++i) {
      MiniNode node;
      node.phys = std::make_unique<mem::PhysMap>(mem::PhysMap::knl(1_GiB, 4_GiB, 2));
      node.device = std::make_unique<hw::HfiDevice>(engine, *fabric, i, hw_cfg);
      node.linux_kernel = std::make_unique<os::LinuxKernel>(engine, cfg);
      node.driver =
          std::make_unique<hfi::HfiDriver>(*node.linux_kernel, *node.device, version);
      if (mode != os::OsMode::linux) {
        node.ihk = std::make_unique<os::Ihk>(engine, cfg, *node.linux_kernel);
        node.mck = std::make_unique<os::McKernel>(engine, cfg, *node.ihk,
                                                  mode == os::OsMode::mckernel_hfi);
        if (mode == os::OsMode::mckernel_hfi) {
          auto p = pico::HfiPicoDriver::create(*node.mck, *node.driver);
          EXPECT_TRUE(p.ok());
          if (p.ok()) node.pico = std::move(*p);
        }
      }
      nodes.push_back(std::move(node));
    }
  }

  std::unique_ptr<os::Process> make_process(int node, int ctxt, os::OsMode mode) {
    auto& n = nodes[static_cast<std::size_t>(node)];
    if (mode == os::OsMode::linux)
      return std::make_unique<os::Process>(*n.linux_kernel, *n.phys, node, ctxt,
                                           1000u + static_cast<unsigned>(ctxt));
    return std::make_unique<os::Process>(*n.mck, *n.phys, node, ctxt,
                                         1000u + static_cast<unsigned>(ctxt));
  }
};

/// Drive one writev of `bytes` from node0/ctxt0 to node1/ctxt0 and run to
/// completion. Returns (result, completion_fired).
struct WritevOutcome {
  Result<long> result = Errno::eio;
  bool completed = false;
  Time finished = 0;
};

WritevOutcome do_writev(MiniCluster& c, os::Process& proc, std::uint64_t bytes) {
  WritevOutcome out;
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p, std::uint64_t len,
                          WritevOutcome& o) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(len);
    CO_ASSERT_TRUE(buf.ok());

    hfi::SdmaReqHeader hdr;
    hdr.wire.src_node = p.node();
    hdr.wire.dst_node = 1;
    hdr.wire.src_ctxt = p.ctxt();
    hdr.wire.dst_ctxt = 0;
    hdr.wire.kind = hw::WireKind::expected;
    hdr.wire.seq = 1;
    hdr.on_complete = [&o] { o.completed = true; };

    std::vector<os::IoVec> iov;
    iov.push_back(os::IoVec{reinterpret_cast<mem::VirtAddr>(&hdr), sizeof hdr});
    iov.push_back(os::IoVec{*buf, len});
    o.result = co_await p.writev(*fd, std::move(iov));
    o.finished = cl.engine.now();
  }(c, proc, bytes, out));
  c.nodes[1].device->open_context(0);
  c.engine.run();
  return out;
}

TEST(LayoutVersions, ExtractedOffsetsMatchDriverForEveryVersion) {
  for (const char* version : {"10.8-0", "10.9-5", "11.0-2"}) {
    MiniCluster c(1, os::OsMode::mckernel_hfi, version);
    auto& node = c.nodes[0];
    ASSERT_NE(node.pico, nullptr) << version;
    const auto& layouts = node.driver->layouts();
    for (const char* sname :
         {"sdma_state", "sdma_engine", "hfi1_filedata", "hfi1_ctxtdata"}) {
      const dwarf::StructDef* truth = layouts.structure(sname);
      const dwarf::StructLayout* bound = node.pico->binding().layout(sname);
      ASSERT_NE(truth, nullptr);
      ASSERT_NE(bound, nullptr) << sname << " " << version;
      EXPECT_EQ(bound->byte_size, truth->byte_size) << sname << " " << version;
      for (const auto& f : bound->fields) {
        const dwarf::FieldDef* tf = truth->field(f.name);
        ASSERT_NE(tf, nullptr);
        EXPECT_EQ(f.offset, tf->offset) << sname << "." << f.name << " @ " << version;
        EXPECT_EQ(f.size, tf->size) << sname << "." << f.name << " @ " << version;
      }
    }
    EXPECT_EQ(node.pico->binding().driver_version(), std::string("hfi1 ") + version);
  }
}

TEST(LayoutVersions, OffsetsActuallyDifferAcrossVersions) {
  auto l1 = dwarf::LayoutTable::for_version(hfi::layout_spec(), "10.8-0");
  auto l2 = dwarf::LayoutTable::for_version(hfi::layout_spec(), "11.0-2");
  ASSERT_TRUE(l1.ok() && l2.ok());
  EXPECT_NE(l1->structure("sdma_state")->field("current_state")->offset,
            l2->structure("sdma_state")->field("current_state")->offset);
  EXPECT_EQ(dwarf::LayoutTable::for_version(hfi::layout_spec(), "9.9-9").error(), Errno::enoent);
}

TEST(PicoBind, FailsOnOriginalVaLayout) {
  sim::Engine engine;
  os::Config cfg;
  hw::Fabric fabric(engine, 1);
  mem::PhysMap phys = mem::PhysMap::knl(1_GiB, 4_GiB, 2);
  hw::HfiDevice device(engine, fabric, 0);
  os::LinuxKernel linux_kernel(engine, cfg);
  hfi::HfiDriver driver(linux_kernel, device, "10.8-0");
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, /*unified_layout=*/false);
  auto pico = pico::HfiPicoDriver::create(mck, driver);
  EXPECT_FALSE(pico.ok());
  EXPECT_EQ(pico.error(), Errno::eperm);
}

TEST(PicoBind, ReservesLwkTextInLinux) {
  MiniCluster c(1, os::OsMode::mckernel_hfi);
  auto& node = c.nodes[0];
  EXPECT_TRUE(node.linux_kernel->text_visible(node.mck->layout().image.start));
  EXPECT_TRUE(node.linux_kernel->text_visible(node.mck->layout().image.end - 1));
}

TEST(PicoBind, GeneratedHeaderAvailableAtRuntime) {
  MiniCluster c(1, os::OsMode::mckernel_hfi);
  auto header = c.nodes[0].pico->binding().generated_header("sdma_state");
  ASSERT_TRUE(header.ok());
  EXPECT_NE(header->find("whole_struct[64]"), std::string::npos);
  EXPECT_NE(header->find("enum sdma_states current_state;"), std::string::npos);
}

TEST(Callbacks, LwkTextInvisibleWithoutReservationFaults) {
  sim::Engine engine;
  os::Config cfg;
  os::LinuxKernel linux_kernel(engine, cfg);
  const mem::KernelLayout orig = mem::mckernel_original_layout();
  bool ran = false;
  // The original McKernel links its image at the same VA as Linux's, so a
  // "visible" check there would hit *Linux* code; use the LWK's private
  // valloc area, which Linux has definitely never mapped.
  os::KernelCallback cb{orig.valloc.start + 0x100, [&] { ran = true; }};
  EXPECT_EQ(linux_kernel.invoke(cb).error(), Errno::efault);
  EXPECT_FALSE(ran);
  EXPECT_EQ(linux_kernel.callback_faults(), 1u);
}

TEST(Writev, LinuxNativeUsesPageSizedDescriptors) {
  MiniCluster c(2, os::OsMode::linux);
  auto proc = c.make_process(0, 0, os::OsMode::linux);
  const auto out = do_writev(c, *proc, 256_KiB);
  ASSERT_TRUE(out.result.ok());
  EXPECT_EQ(*out.result, static_cast<long>(256_KiB));
  EXPECT_TRUE(out.completed);
  const auto& dev = *c.nodes[0].device;
  EXPECT_EQ(dev.total_descriptors(), 256_KiB / 4096);
  EXPECT_EQ(dev.total_descriptor_bytes(), 256_KiB);
  // Pins released by the completion IRQ path.
  EXPECT_EQ(proc->as().pinned_frame_count(), 0u);
  EXPECT_GE(c.nodes[0].linux_kernel->irqs_handled(), 1u);
  EXPECT_EQ(c.nodes[0].linux_kernel->callback_faults(), 0u);
}

TEST(Writev, PicoFastPathUses10KDescriptors) {
  MiniCluster c(2, os::OsMode::mckernel_hfi);
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  const auto out = do_writev(c, *proc, 256_KiB);
  ASSERT_TRUE(out.result.ok());
  EXPECT_TRUE(out.completed);
  const auto& dev = *c.nodes[0].device;
  // ceil(262144 / 10240) = 26 descriptors when backing is contiguous.
  EXPECT_LE(dev.total_descriptors(), 27u);
  EXPECT_GE(dev.total_descriptors(), 26u);
  EXPECT_EQ(dev.total_descriptor_bytes(), 256_KiB);
  EXPECT_EQ(c.nodes[0].pico->fast_writevs(), 1u);
  EXPECT_EQ(c.nodes[0].linux_kernel->callback_faults(), 0u)
      << "LWK completion callback must be invocable from Linux";
  EXPECT_EQ(c.nodes[0].driver->writev_calls(), 0u) << "Linux path must not be used";
}

TEST(Writev, OffloadedMcKernelStillWorksAndIsSlower) {
  MiniCluster hfi_cluster(2, os::OsMode::mckernel_hfi);
  auto p1 = hfi_cluster.make_process(0, 0, os::OsMode::mckernel_hfi);
  const auto fast = do_writev(hfi_cluster, *p1, 64_KiB);

  MiniCluster off_cluster(2, os::OsMode::mckernel);
  auto p2 = off_cluster.make_process(0, 0, os::OsMode::mckernel);
  const auto slow = do_writev(off_cluster, *p2, 64_KiB);

  ASSERT_TRUE(fast.result.ok());
  ASSERT_TRUE(slow.result.ok());
  EXPECT_TRUE(slow.completed);
  // Offloaded syscall: driver ran via proxy; the writev syscall cost more.
  EXPECT_EQ(off_cluster.nodes[0].driver->writev_calls(), 1u);
  EXPECT_GT(off_cluster.nodes[0].ihk->offload_count(), 0u);
  const double fast_us =
      hfi_cluster.nodes[0].mck->profiler().total_us_of("writev");
  const double slow_us =
      off_cluster.nodes[0].mck->profiler().total_us_of("writev");
  EXPECT_GT(slow_us, fast_us * 3) << "offload should dominate fast path cost";
}

TEST(Writev, RemoteFreeFlowsThroughQueue) {
  MiniCluster c(2, os::OsMode::mckernel_hfi);
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  auto& mck = *c.nodes[0].mck;
  const auto out = do_writev(c, *proc, 128_KiB);
  ASSERT_TRUE(out.result.ok());
  // Completion freed LWK metadata from a Linux CPU → remote queue.
  EXPECT_EQ(mck.kheap().stats().remote_frees, 1u);
  EXPECT_EQ(mck.kheap().stats().rejected_frees, 0u);
  // Next tick (or explicit drain) reclaims it.
  mck.drain_remote_frees();
  EXPECT_EQ(mck.kheap().stats().bytes_live, 0u);
}

TEST(Tid, LinuxProgramsPerPageEntries) {
  MiniCluster c(1, os::OsMode::linux);
  auto proc = c.make_process(0, 0, os::OsMode::linux);
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(128_KiB);
    CO_ASSERT_TRUE(buf.ok());
    hfi::TidUpdateArgs args;
    args.vaddr = *buf;
    args.length = 128_KiB;
    auto r = co_await p.ioctl(*fd, hfi::kTidUpdate, &args);
    CO_ASSERT_TRUE(r.ok());
    EXPECT_EQ(args.tids.size(), 128_KiB / 4096) << "one TID per 4 KiB page";
    EXPECT_EQ(cl.nodes[0].device->rcv_array().in_use(), args.tids.size());
    // And free them again.
    hfi::TidFreeArgs free_args;
    free_args.tids = args.tids;
    auto fr = co_await p.ioctl(*fd, hfi::kTidFree, &free_args);
    CO_ASSERT_TRUE(fr.ok());
    EXPECT_EQ(cl.nodes[0].device->rcv_array().in_use(), 0u);
    EXPECT_EQ(p.as().pinned_frame_count(), 0u);
  }(c, *proc));
  c.engine.run();
}

TEST(Tid, PicoProgramsPerExtentEntries) {
  MiniCluster c(1, os::OsMode::mckernel_hfi);
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(2_MiB);
    CO_ASSERT_TRUE(buf.ok());
    hfi::TidUpdateArgs args;
    args.vaddr = *buf;
    args.length = 2_MiB;
    auto r = co_await p.ioctl(*fd, hfi::kTidUpdate, &args);
    CO_ASSERT_TRUE(r.ok());
    // Contiguous 2 MiB large-page backing → a single RcvArray entry
    // instead of 512.
    EXPECT_LE(args.tids.size(), 2u);
    EXPECT_EQ(cl.nodes[0].pico->fast_tid_updates(), 1u);
    hfi::TidFreeArgs free_args;
    free_args.tids = args.tids;
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, hfi::kTidFree, &free_args)).ok());
    EXPECT_EQ(cl.nodes[0].device->rcv_array().in_use(), 0u);
  }(c, *proc));
  c.engine.run();
}

TEST(Tid, WrappingRangeFaultsOnBothPaths) {
  // A length whose end wraps past 2^64 is refused with EFAULT before any
  // page count is derived from it, by TID_UPDATE and writev alike, on the
  // Linux driver and on the fast path.
  for (const os::OsMode mode : {os::OsMode::linux, os::OsMode::mckernel_hfi}) {
    SCOPED_TRACE(mode == os::OsMode::linux ? "linux" : "mckernel_hfi");
    MiniCluster c(2, mode);
    auto proc = c.make_process(0, 0, mode);
    sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p) -> sim::Task<> {
      auto fd = co_await p.open(hfi::kDeviceName);
      CO_ASSERT_TRUE(fd.ok());
      auto buf = co_await p.mmap_anon(64_KiB);
      CO_ASSERT_TRUE(buf.ok());
      const std::uint64_t wrapping = ~std::uint64_t{0} - *buf + 2;  // *buf + len == 1

      hfi::TidUpdateArgs args;
      args.vaddr = *buf;
      args.length = wrapping;
      EXPECT_EQ((co_await p.ioctl(*fd, hfi::kTidUpdate, &args)).error(), Errno::efault);
      EXPECT_TRUE(args.tids.empty());
      EXPECT_EQ(cl.nodes[0].device->rcv_array().in_use(), 0u);

      hfi::SdmaReqHeader hdr;
      hdr.wire.dst_node = 1;
      std::vector<os::IoVec> iov;
      iov.push_back(os::IoVec{reinterpret_cast<mem::VirtAddr>(&hdr), sizeof hdr});
      iov.push_back(os::IoVec{*buf, wrapping});
      EXPECT_EQ((co_await p.writev(*fd, std::move(iov))).error(), Errno::efault);
    }(c, *proc));
    c.engine.run();
  }
}

TEST(Tid, UpdateReportsOnlyThisCallsTids) {
  // TID_UPDATE's `tids` is an out-vector, as hfi1's tidlist/tidcnt: a
  // caller that reuses one TidUpdateArgs gets the second call's TIDs and
  // count only, so freeing them leaves the first call's entries live.
  for (const os::OsMode mode : {os::OsMode::linux, os::OsMode::mckernel_hfi}) {
    SCOPED_TRACE(mode == os::OsMode::linux ? "linux" : "mckernel_hfi");
    MiniCluster c(1, mode);
    auto proc = c.make_process(0, 0, mode);
    sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p) -> sim::Task<> {
      const hw::RcvArray& rcv = cl.nodes[0].device->rcv_array();
      auto fd = co_await p.open(hfi::kDeviceName);
      CO_ASSERT_TRUE(fd.ok());
      auto buf1 = co_await p.mmap_anon(16_KiB);
      CO_ASSERT_TRUE(buf1.ok());
      auto buf2 = co_await p.mmap_anon(8_KiB);
      CO_ASSERT_TRUE(buf2.ok());
      hfi::TidUpdateArgs args;
      args.vaddr = *buf1;
      args.length = 16_KiB;
      CO_ASSERT_TRUE((co_await p.ioctl(*fd, hfi::kTidUpdate, &args)).ok());
      const std::vector<std::uint32_t> first = args.tids;
      CO_ASSERT_TRUE(!first.empty());

      args.vaddr = *buf2;
      args.length = 8_KiB;
      auto r = co_await p.ioctl(*fd, hfi::kTidUpdate, &args);
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(static_cast<std::size_t>(*r), args.tids.size());
      EXPECT_EQ(rcv.in_use(), first.size() + args.tids.size())
          << "the second call reports only the entries it programmed";
      for (const std::uint32_t tid : first)
        EXPECT_EQ(std::count(args.tids.begin(), args.tids.end(), tid), 0)
            << "the first call's TID " << tid << " is reported again";

      hfi::TidFreeArgs free_args;
      free_args.tids = args.tids;
      CO_ASSERT_TRUE((co_await p.ioctl(*fd, hfi::kTidFree, &free_args)).ok());
      EXPECT_EQ(rcv.in_use(), first.size());
      for (const std::uint32_t tid : first) EXPECT_NE(rcv.entry(tid), nullptr) << tid;
    }(c, *proc));
    c.engine.run();
  }
}

TEST(Tid, PicoQuotaEvictionRecyclesOwnShareOnly) {
  // Fast-path registrations share the per-context RcvArray quota and its
  // reclamation policy with the Linux path: at quota the tenant's own LRU
  // entry is recycled (pico.tid.quota_evict), a neighbour context's
  // entries are never candidates. 256 RcvArray entries / 64 contexts = a
  // 4-entry quota, reachable with single-page registrations.
  os::Config cfg;
  cfg.hfi_tid_quota_evict = true;
  hw::HfiConfig hc;
  hc.rcv_array_entries = 256;
  MiniCluster c(1, os::OsMode::mckernel_hfi, cfg, hc);
  auto tenant = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  auto neighbour = c.make_process(0, 1, os::OsMode::mckernel_hfi);
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& a, os::Process& b) -> sim::Task<> {
    auto fda = co_await a.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fda.ok());
    auto fdb = co_await b.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fdb.ok());
    auto reg = [](os::Process& p, int fd) -> sim::Task<Result<std::uint32_t>> {
      auto buf = co_await p.mmap_anon(4_KiB);
      if (!buf.ok()) co_return buf.error();
      hfi::TidUpdateArgs args;
      args.vaddr = *buf;
      args.length = 4_KiB;
      auto r = co_await p.ioctl(fd, hfi::kTidUpdate, &args);
      if (!r.ok()) co_return r.error();
      if (args.tids.size() != 1) co_return Errno::eio;
      co_return args.tids[0];
    };
    auto btid = co_await reg(b, *fdb);
    CO_ASSERT_TRUE(btid.ok());
    std::vector<std::uint32_t> atids;
    for (int i = 0; i < 4; ++i) {  // fill the tenant's quota exactly
      auto t = co_await reg(a, *fda);
      CO_ASSERT_TRUE(t.ok());
      atids.push_back(*t);
    }
    EXPECT_EQ(cl.nodes[0].device->rcv_array().in_use(), 5u);
    const hw::TidEntry* oldest = cl.nodes[0].device->rcv_array().entry(atids[0]);
    CO_ASSERT_TRUE(oldest != nullptr);
    const mem::PhysAddr victim = oldest->pa;

    auto extra = co_await reg(a, *fda);  // one entry over quota
    CO_ASSERT_TRUE(extra.ok());
    EXPECT_EQ(cl.nodes[0].mck->profiler().counter("pico.tid.quota_evict"), 1u);
    EXPECT_EQ(cl.nodes[0].device->rcv_array().in_use(), 5u)
        << "net share unchanged: own LRU out, new entry in";
    // The freed TID may already hold the new registration's extent.
    const hw::TidEntry* recycled = cl.nodes[0].device->rcv_array().entry(atids[0]);
    EXPECT_TRUE(recycled == nullptr || recycled->pa != victim)
        << "the tenant's oldest registration is the victim";
    const auto* be = cl.nodes[0].device->rcv_array().entry(*btid);
    CO_ASSERT_TRUE(be != nullptr);
    EXPECT_EQ(be->owner_ctxt, 1) << "neighbour entry must never be evicted";
  }(c, *tenant, *neighbour));
  c.engine.run();
}

TEST(Tid, PicoTidFreeFailingPartwayReleasesWhatItFreed) {
  // The fast path's TID_FREE keeps the Linux driver's semantics: it stops
  // with EINVAL at the first TID it cannot unprogram, and the entries it
  // freed before that give their quota back. 4-entry quota, as above.
  hw::HfiConfig hc;
  hc.rcv_array_entries = 256;
  MiniCluster c(1, os::OsMode::mckernel_hfi, os::Config{}, hc);
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto reg = [](os::Process& pr, int file) -> sim::Task<Result<std::uint32_t>> {
      auto buf = co_await pr.mmap_anon(4_KiB);
      if (!buf.ok()) co_return buf.error();
      hfi::TidUpdateArgs args;
      args.vaddr = *buf;
      args.length = 4_KiB;
      auto r = co_await pr.ioctl(file, hfi::kTidUpdate, &args);
      if (!r.ok()) co_return r.error();
      if (args.tids.size() != 1) co_return Errno::eio;
      co_return args.tids[0];
    };
    std::vector<std::uint32_t> tids;
    for (int i = 0; i < 4; ++i) {
      auto t = co_await reg(p, *fd);
      CO_ASSERT_TRUE(t.ok());
      tids.push_back(*t);
    }
    hfi::TidFreeArgs free_args;
    free_args.tids = {tids[0], tids[1], 255};  // 255 is not owned
    EXPECT_EQ((co_await p.ioctl(*fd, hfi::kTidFree, &free_args)).error(), Errno::einval);
    EXPECT_EQ(cl.nodes[0].pico->fast_tid_frees(), 1u);
    EXPECT_EQ(cl.nodes[0].device->rcv_array().in_use(), 2u);
    for (int i = 0; i < 2; ++i)
      EXPECT_TRUE((co_await reg(p, *fd)).ok()) << "freed entry " << i << " is reusable";
    EXPECT_EQ(cl.nodes[0].device->rcv_array().in_use(), 4u);
  }(c, *proc));
  c.engine.run();
}

TEST(Tid, ExtentCacheFileQuotaEvictsOwnColdestCacheOnly) {
  // `pico_extent_quota_files` caps per-file extent caches per process: a
  // process opening file after file drops its *own* coldest cache at the
  // cap, while another process's cache survives (proved by its re-lookup
  // still hitting).
  os::Config cfg;
  cfg.pico_extent_quota_files = 2;
  MiniCluster c(1, os::OsMode::mckernel_hfi, cfg, hw::HfiConfig{});
  auto hungry = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  auto other = c.make_process(0, 1, os::OsMode::mckernel_hfi);
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& a, os::Process& b) -> sim::Task<> {
    auto reg = [](os::Process& p, int fd, mem::VirtAddr va) -> sim::Task<Status> {
      hfi::TidUpdateArgs args;
      args.vaddr = va;
      args.length = 4_KiB;
      auto r = co_await p.ioctl(fd, hfi::kTidUpdate, &args);
      if (!r.ok()) co_return r.error();
      hfi::TidFreeArgs free_args;  // keep the RcvArray empty; only caches matter
      free_args.tids = args.tids;
      auto fr = co_await p.ioctl(fd, hfi::kTidFree, &free_args);
      co_return fr.ok() ? Status::success() : Status(fr.error());
    };
    // The other process warms its one cache first.
    auto fdb = co_await b.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fdb.ok());
    auto bbuf = co_await b.mmap_anon(4_KiB);
    CO_ASSERT_TRUE(bbuf.ok());
    CO_ASSERT_TRUE((co_await reg(b, *fdb, *bbuf)).ok());

    // The hungry process churns through three files (fds): the third cache
    // creation is over its 2-cache quota and must drop its own coldest.
    auto abuf = co_await a.mmap_anon(4_KiB);
    CO_ASSERT_TRUE(abuf.ok());
    for (int i = 0; i < 3; ++i) {
      auto fda = co_await a.open(hfi::kDeviceName);
      CO_ASSERT_TRUE(fda.ok());
      CO_ASSERT_TRUE((co_await reg(a, *fda, *abuf)).ok());
      CO_ASSERT_TRUE((co_await a.close_fd(*fda)).ok());
    }
    EXPECT_EQ(cl.nodes[0].pico->extent_cache_file_quota_evictions(), 1u);
    EXPECT_EQ(cl.nodes[0].mck->profiler().counter("pico.extent_cache.quota_file_evicted"),
              1u);

    // The other process's cache must have survived the neighbour's churn:
    // re-registering the same window is still a cache hit.
    const auto hits_before = cl.nodes[0].pico->extent_cache_hits();
    CO_ASSERT_TRUE((co_await reg(b, *fdb, *bbuf)).ok());
    EXPECT_EQ(cl.nodes[0].pico->extent_cache_hits(), hits_before + 1)
        << "neighbour's extent cache must never be a quota victim";
  }(c, *hungry, *other));
  c.engine.run();
}

/// Open one fabricated per-ctxt OpenFile straight through the Linux driver.
/// Process::open allows one HFI fd per process (its ctxt is fixed), but the
/// hardware supports many receive contexts — these tests need several live
/// fds for one process, exactly what a real multi-context rank holds.
sim::Task<Status> open_direct(hfi::HfiDriver& driver, os::OpenFile& f,
                              os::Process& p, int fd, int ctxt) {
  f.fd = fd;
  f.proc = &p;
  f.ctxt = ctxt;
  auto r = co_await driver.open(f);
  co_return r.ok() ? Status::success() : Status(r.error());
}

/// TID-register then free `va` through the pico fast path on `f`, touching
/// (or creating) the per-file extent cache.
sim::Task<Status> reg_direct(pico::HfiPicoDriver& pico, os::OpenFile& f,
                             mem::VirtAddr va) {
  hfi::TidUpdateArgs args;
  args.vaddr = va;
  args.length = 4_KiB;
  auto r = co_await pico.fast_ioctl(f, hfi::kTidUpdate, &args);
  if (!r.ok()) co_return r.error();
  hfi::TidFreeArgs free_args;
  free_args.tids = args.tids;
  auto fr = co_await pico.fast_ioctl(f, hfi::kTidFree, &free_args);
  co_return fr.ok() ? Status::success() : Status(fr.error());
}

TEST(Tid, QuotaFloodDuringSuspendedWritevSparesPinnedCache) {
  // Regression (ISSUE 8 satellite): a fast_writev suspends mid-flight (here
  // on a contended SDMA engine lock) while holding pins on its file's extent
  // cache; the same process then floods new fds past
  // `pico_extent_quota_files`. The quota victim scan must *skip* the pinned
  // cache (falling to the next-coldest owned victim, counted in
  // quota_skip_pinned) — evicting it would tear down extents the suspended
  // send is actively reading when it resumes.
  os::Config cfg;
  cfg.pico_extent_quota_files = 2;
  MiniCluster c(2, os::OsMode::mckernel_hfi, cfg, hw::HfiConfig{});
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  bool completed = false;
  Result<long> writev_result = Errno::eio;
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p, bool& done,
                          Result<long>& wr) -> sim::Task<> {
    auto& node = cl.nodes[0];
    os::OpenFile fa, fb, fc;
    CO_ASSERT_TRUE((co_await open_direct(*node.driver, fa, p, 100, 0)).ok());
    auto abuf = co_await p.mmap_anon(64_KiB);
    auto rbuf = co_await p.mmap_anon(4_KiB);
    CO_ASSERT_TRUE(abuf.ok() && rbuf.ok());

    // Hold every SDMA engine lock so the writev parks *after* pinning.
    for (int e = 0; e < node.device->num_engines(); ++e)
      co_await node.driver->engine_lock(e).acquire();

    hfi::SdmaReqHeader hdr;
    hdr.wire.src_node = 0;
    hdr.wire.dst_node = 1;
    hdr.wire.src_ctxt = 0;
    hdr.wire.dst_ctxt = 0;
    hdr.wire.kind = hw::WireKind::expected;
    hdr.wire.seq = 1;
    hdr.on_complete = [&done] { done = true; };
    std::vector<os::IoVec> iov{os::IoVec{reinterpret_cast<mem::VirtAddr>(&hdr), sizeof hdr},
                               os::IoVec{*abuf, 64_KiB}};
    // The send reads fa, iov and hdr from this frame until it returns.
    sim::Latch sent(cl.engine);
    sim::spawn(cl.engine, [](pico::HfiPicoDriver& pd_, os::OpenFile& f,
                             std::vector<os::IoVec>& io, Result<long>& out,
                             sim::Latch& done_sending) -> sim::Task<> {
      out = co_await pd_.fast_writev(f, io);
      done_sending.trigger();
    }(*node.pico, fa, iov, wr, sent));
    co_await cl.engine.delay(from_us(50));  // let it pin and hit the lock
    EXPECT_EQ(node.pico->fast_writevs(), 1u) << "the send must be in flight";

    // Flood: two more per-fd caches push the process past its 2-cache
    // quota while the suspended writev's pinned cache is the coldest entry.
    CO_ASSERT_TRUE((co_await open_direct(*node.driver, fb, p, 101, 1)).ok());
    CO_ASSERT_TRUE((co_await open_direct(*node.driver, fc, p, 102, 2)).ok());
    CO_ASSERT_TRUE((co_await reg_direct(*node.pico, fb, *rbuf)).ok());
    CO_ASSERT_TRUE((co_await reg_direct(*node.pico, fc, *rbuf)).ok());

    EXPECT_GE(node.pico->extent_cache_quota_skip_pinned(), 1u)
        << "the pinned cache must be passed over, not evicted";
    EXPECT_GE(node.mck->profiler().counter("pico.extent_cache.quota_skip_pinned"), 1u);

    for (int e = 0; e < node.device->num_engines(); ++e)
      node.driver->engine_lock(e).release();
    co_await sent.wait();
  }(c, *proc, completed, writev_result));
  c.nodes[1].device->open_context(0);
  c.engine.run();

  // The suspended send finished on the fast path with its payload intact —
  // its extents were never torn down under it.
  ASSERT_TRUE(writev_result.ok()) << "writev must survive the quota flood";
  EXPECT_EQ(*writev_result, static_cast<long>(64_KiB));
  EXPECT_TRUE(completed);
  EXPECT_EQ(c.nodes[0].pico->fast_writevs(), 1u);
  EXPECT_EQ(c.nodes[0].pico->fallbacks(), 0u);
}

TEST(Tid, FileCacheRecencyKeepsEvictionOrderAfterTouches) {
  // Regression for the O(1) recency-list refresh (ISSUE 8 satellite): the
  // intrusive list must preserve the exact LRU eviction order the old
  // find+rotate scan produced — a touched cache survives the next quota
  // eviction, the untouched coldest one goes.
  os::Config cfg;
  cfg.pico_extent_quota_files = 2;
  MiniCluster c(1, os::OsMode::mckernel_hfi, cfg, hw::HfiConfig{});
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p) -> sim::Task<> {
    auto& node = cl.nodes[0];
    os::OpenFile fa, fb, fc;
    CO_ASSERT_TRUE((co_await open_direct(*node.driver, fa, p, 100, 0)).ok());
    CO_ASSERT_TRUE((co_await open_direct(*node.driver, fb, p, 101, 1)).ok());
    CO_ASSERT_TRUE((co_await open_direct(*node.driver, fc, p, 102, 2)).ok());
    auto buf = co_await p.mmap_anon(4_KiB);
    CO_ASSERT_TRUE(buf.ok());

    CO_ASSERT_TRUE((co_await reg_direct(*node.pico, fa, *buf)).ok());  // [A]
    CO_ASSERT_TRUE((co_await reg_direct(*node.pico, fb, *buf)).ok());  // [A, B]
    // Touch A: it must move to the hot end — B is now the coldest.
    const auto hits0 = node.pico->extent_cache_hits();
    CO_ASSERT_TRUE((co_await reg_direct(*node.pico, fa, *buf)).ok());  // [B, A]
    EXPECT_EQ(node.pico->extent_cache_hits(), hits0 + 1);

    // Over quota: the victim must be untouched B, not recently-touched A.
    CO_ASSERT_TRUE((co_await reg_direct(*node.pico, fc, *buf)).ok());  // evict B → [A, C]
    EXPECT_EQ(node.pico->extent_cache_file_quota_evictions(), 1u);
    const auto hits1 = node.pico->extent_cache_hits();
    CO_ASSERT_TRUE((co_await reg_direct(*node.pico, fa, *buf)).ok());  // A survived
    EXPECT_EQ(node.pico->extent_cache_hits(), hits1 + 1)
        << "the touched cache must have survived the eviction";

    // B was evicted: recreating it is a miss and evicts the now-coldest C.
    const auto misses0 = node.pico->extent_cache_misses();
    CO_ASSERT_TRUE((co_await reg_direct(*node.pico, fb, *buf)).ok());  // evict C → [A, B]
    EXPECT_EQ(node.pico->extent_cache_misses(), misses0 + 1)
        << "the evicted cache must really be gone";
    EXPECT_EQ(node.pico->extent_cache_file_quota_evictions(), 2u);
    const auto hits2 = node.pico->extent_cache_hits();
    CO_ASSERT_TRUE((co_await reg_direct(*node.pico, fa, *buf)).ok());  // A still alive
    EXPECT_EQ(node.pico->extent_cache_hits(), hits2 + 1);
  }(c, *proc));
  c.engine.run();
}

TEST(Tid, AdminIoctlStillOffloadsUnderPico) {
  MiniCluster c(1, os::OsMode::mckernel_hfi);
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    const std::uint64_t offloads_before = cl.nodes[0].ihk->offload_count();
    auto r = co_await p.ioctl(*fd, hfi::kCtxtInfo, nullptr);
    CO_ASSERT_TRUE(r.ok());
    EXPECT_EQ(cl.nodes[0].ihk->offload_count(), offloads_before + 1)
        << "non-TID ioctl must take the offload path";
  }(c, *proc));
  c.engine.run();
}

TEST(Offload, ContentionQueuesOnServiceCpus) {
  MiniCluster c(1, os::OsMode::mckernel);
  std::vector<std::unique_ptr<os::Process>> procs;
  for (int i = 0; i < 32; ++i) procs.push_back(c.make_process(0, i, os::OsMode::mckernel));
  int opened = 0;
  for (auto& p : procs) {
    sim::spawn(c.engine, [](os::Process& proc, int& done) -> sim::Task<> {
      auto fd = co_await proc.open(hfi::kDeviceName);
      CO_ASSERT_TRUE(fd.ok());
      ++done;
    }(*p, opened));
  }
  c.engine.run();
  EXPECT_EQ(opened, 32);
  // 32 opens through 4 service CPUs: queueing must be visible.
  EXPECT_GT(c.nodes[0].ihk->queueing_summary().mean_us, 1.0);
}

TEST(Writev, RepeatedBufferHitsExtentCacheAndReusesSlab) {
  MiniCluster c(2, os::OsMode::mckernel_hfi);
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  int completions = 0;
  sim::spawn(c.engine, [](os::Process& p, int& done) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(64_KiB);
    CO_ASSERT_TRUE(buf.ok());
    const auto send = [&](std::uint64_t seq) -> sim::Task<Result<long>> {
      hfi::SdmaReqHeader hdr;
      hdr.wire.src_node = p.node();
      hdr.wire.dst_node = 1;
      hdr.wire.src_ctxt = p.ctxt();
      hdr.wire.dst_ctxt = 0;
      hdr.wire.kind = hw::WireKind::eager;
      hdr.wire.seq = seq;
      hdr.on_complete = [&done] { ++done; };
      std::vector<os::IoVec> iov;
      iov.push_back(os::IoVec{reinterpret_cast<mem::VirtAddr>(&hdr), sizeof hdr});
      iov.push_back(os::IoVec{*buf, 64_KiB});
      co_return co_await p.writev(*fd, std::move(iov));
    };
    for (std::uint64_t i = 1; i <= 4; ++i) {
      CO_ASSERT_TRUE((co_await send(i)).ok());
      // Let the completion IRQ run so the metadata lands on the remote-free
      // queue before the next send's entry drain.
      co_await p.nanosleep(50_us);
    }
    // A munmap of a *disjoint* buffer moves the map generation, but the
    // cached send buffer is still mapped: send 5 must still hit instead of
    // re-walking.
    auto scratch = co_await p.mmap_anon(16_KiB);
    CO_ASSERT_TRUE(scratch.ok());
    CO_ASSERT_TRUE((co_await p.munmap(*scratch, 16_KiB)).ok());
    CO_ASSERT_TRUE((co_await send(5)).ok());
  }(*proc, completions));
  c.nodes[1].device->open_context(0);
  c.engine.run();

  auto& node = c.nodes[0];
  EXPECT_EQ(node.pico->fast_writevs(), 5u);
  EXPECT_EQ(node.pico->fallbacks(), 0u);
  // Send 1 walks, sends 2-5 hit (5 despite the disjoint munmap).
  EXPECT_EQ(node.pico->extent_cache_misses(), 1u);
  EXPECT_EQ(node.pico->extent_cache_hits(), 4u);
  const auto& prof = node.mck->profiler();
  EXPECT_EQ(prof.counter("pico.extent_cache.hit"), 4u);
  EXPECT_EQ(prof.counter("pico.extent_cache.miss"), 1u);
  // Every lookup lands in exactly one outcome counter (no evictions here).
  EXPECT_EQ(prof.sum_counters("pico.extent_cache."), 5u);
  // Sends 2-5 each reclaim the previous completion's 192-byte metadata
  // from the remote-free queue and pop it straight off the slab magazine.
  EXPECT_GE(node.mck->kheap().stats().slab_reuses, 4u);
  EXPECT_GE(prof.counter("lwk.kheap.slab_reuse"), 4u);
  EXPECT_EQ(completions, 5);
}

TEST(Tid, ReRegistrationHitsExtentCache) {
  MiniCluster c(1, os::OsMode::mckernel_hfi);
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(2_MiB);
    CO_ASSERT_TRUE(buf.ok());
    for (int round = 0; round < 2; ++round) {
      hfi::TidUpdateArgs args;
      args.vaddr = *buf;
      args.length = 2_MiB;
      CO_ASSERT_TRUE((co_await p.ioctl(*fd, hfi::kTidUpdate, &args)).ok());
      hfi::TidFreeArgs free_args;
      free_args.tids = args.tids;
      CO_ASSERT_TRUE((co_await p.ioctl(*fd, hfi::kTidFree, &free_args)).ok());
    }
    EXPECT_EQ(cl.nodes[0].device->rcv_array().in_use(), 0u);
  }(c, *proc));
  c.engine.run();
  // TID_FREE does not unmap anything, so the second registration of the
  // same pinned window is the PSM2 TID-cache amortization: a pure hit.
  EXPECT_EQ(c.nodes[0].pico->fast_tid_updates(), 2u);
  EXPECT_EQ(c.nodes[0].pico->extent_cache_misses(), 1u);
  EXPECT_EQ(c.nodes[0].pico->extent_cache_hits(), 1u);
  EXPECT_EQ(c.nodes[0].mck->profiler().counter("pico.extent_cache.hit"), 1u);
}

TEST(Writev, RingFullFallsBackToLinuxAfterBoundedBackoff) {
  MiniCluster c(2, os::OsMode::mckernel_hfi);
  // Two short backoff attempts (300 ns total) cannot outwait a full ring
  // that drains one 10 KiB descriptor per ~473 ns.
  c.cfg.pico_ring_backoff_attempts = 2;
  c.cfg.pico_ring_backoff_base = 100_ns;
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  WritevOutcome out;
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p, WritevOutcome& o) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(128_KiB);
    CO_ASSERT_TRUE(buf.ok());

    // Stuff every engine's ring completely full right before the send.
    auto& dev = *cl.nodes[0].device;
    std::uint64_t seq = 1000;
    for (int e = 0; e < dev.num_engines(); ++e) {
      auto& engine = dev.engine(e);
      while (engine.ring_free() > 0) {
        hw::SdmaRequest filler;
        filler.descriptors.push_back(hw::SdmaDescriptor{0x1000, 10240});
        filler.header.src_node = 0;
        filler.header.dst_node = 1;
        filler.header.dst_ctxt = 0;
        filler.header.kind = hw::WireKind::eager;
        filler.header.seq = seq++;
        CO_ASSERT_TRUE(engine.submit(std::move(filler)).ok());
      }
    }

    hfi::SdmaReqHeader hdr;
    hdr.wire.src_node = p.node();
    hdr.wire.dst_node = 1;
    hdr.wire.src_ctxt = p.ctxt();
    hdr.wire.dst_ctxt = 0;
    hdr.wire.kind = hw::WireKind::expected;
    hdr.wire.seq = 1;
    hdr.on_complete = [&o] { o.completed = true; };
    std::vector<os::IoVec> iov;
    iov.push_back(os::IoVec{reinterpret_cast<mem::VirtAddr>(&hdr), sizeof hdr});
    iov.push_back(os::IoVec{*buf, 128_KiB});
    o.result = co_await p.writev(*fd, std::move(iov));
    o.finished = cl.engine.now();
  }(c, *proc, out));
  c.nodes[1].device->open_context(0);
  c.engine.run();

  ASSERT_TRUE(out.result.ok()) << "the send must still succeed via Linux";
  EXPECT_EQ(*out.result, static_cast<long>(128_KiB));
  EXPECT_TRUE(out.completed) << "the payload's completion must still fire";
  auto& node = c.nodes[0];
  EXPECT_EQ(node.pico->ring_full_fallbacks(), 1u);
  EXPECT_EQ(node.pico->fallbacks(), 1u);
  EXPECT_EQ(node.driver->writev_calls(), 1u) << "fallback must reuse the Linux path";
  EXPECT_EQ(node.mck->profiler().counter("pico.ring_full_fallback"), 1u);
  // The Linux path really carried the payload to the hardware: beyond the
  // ring-stuffing filler, the device saw the 128 KiB in 4 KiB descriptors.
  EXPECT_GE(node.device->total_descriptor_bytes(), 128_KiB);
}

TEST(Writev, RingFullBackoffOutwaitsDrainWithoutFallback) {
  // Companion regression: with the default (generous) backoff schedule the
  // engine drains faster than the bounded wait expires, so a full ring must
  // *not* force the Linux path — the fast path retries and submits.
  MiniCluster c(2, os::OsMode::mckernel_hfi);
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  WritevOutcome out;
  sim::spawn(c.engine, [](MiniCluster& cl, os::Process& p, WritevOutcome& o) -> sim::Task<> {
    auto fd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(128_KiB);
    CO_ASSERT_TRUE(buf.ok());
    auto& dev = *cl.nodes[0].device;
    std::uint64_t seq = 1000;
    for (int e = 0; e < dev.num_engines(); ++e) {
      auto& engine = dev.engine(e);
      while (engine.ring_free() > 0) {
        hw::SdmaRequest filler;
        filler.descriptors.push_back(hw::SdmaDescriptor{0x1000, 10240});
        filler.header.src_node = 0;
        filler.header.dst_node = 1;
        filler.header.dst_ctxt = 0;
        filler.header.kind = hw::WireKind::eager;
        filler.header.seq = seq++;
        CO_ASSERT_TRUE(engine.submit(std::move(filler)).ok());
      }
    }
    hfi::SdmaReqHeader hdr;
    hdr.wire.src_node = p.node();
    hdr.wire.dst_node = 1;
    hdr.wire.src_ctxt = p.ctxt();
    hdr.wire.dst_ctxt = 0;
    hdr.wire.kind = hw::WireKind::expected;
    hdr.wire.seq = 1;
    hdr.on_complete = [&o] { o.completed = true; };
    std::vector<os::IoVec> iov;
    iov.push_back(os::IoVec{reinterpret_cast<mem::VirtAddr>(&hdr), sizeof hdr});
    iov.push_back(os::IoVec{*buf, 128_KiB});
    o.result = co_await p.writev(*fd, std::move(iov));
  }(c, *proc, out));
  c.nodes[1].device->open_context(0);
  c.engine.run();

  ASSERT_TRUE(out.result.ok());
  EXPECT_EQ(*out.result, static_cast<long>(128_KiB));
  EXPECT_TRUE(out.completed);
  auto& node = c.nodes[0];
  EXPECT_EQ(node.pico->ring_full_fallbacks(), 0u) << "backoff should outwait the drain";
  EXPECT_EQ(node.pico->fallbacks(), 0u);
  EXPECT_EQ(node.pico->fast_writevs(), 1u);
  EXPECT_EQ(node.driver->writev_calls(), 0u) << "Linux path must not be used";
  EXPECT_EQ(node.mck->profiler().counter("pico.ring_full_fallback"), 0u);
}

TEST(Writev, EngineNotRunningFallsBackToLinuxPath) {
  MiniCluster c(2, os::OsMode::mckernel_hfi);
  auto proc = c.make_process(0, 0, os::OsMode::mckernel_hfi);
  auto& node = c.nodes[0];
  // Force every engine's state away from s99_running via the driver's own
  // layout view (vendor reset in progress).
  const dwarf::LayoutTable& layouts = node.driver->layouts();
  for (int i = 0; i < node.device->num_engines(); ++i) {
    auto bytes = node.linux_kernel->kheap().data(node.driver->sdma_engine_image(i));
    layouts.image(bytes, "sdma_engine")
        .member("state", *layouts.structure("sdma_state"))
        .write<std::uint32_t>("current_state",
                              static_cast<std::uint32_t>(hfi::SdmaStates::s50_hw_halt_wait));
  }
  const auto out = do_writev(c, *proc, 64_KiB);
  ASSERT_TRUE(out.result.ok());
  EXPECT_EQ(node.pico->fallbacks(), 1u);
  EXPECT_EQ(node.driver->writev_calls(), 1u) << "fallback must reuse the Linux path";
}

}  // namespace
}  // namespace pd
