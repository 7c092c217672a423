// Integration tests for the second device class: pd-doom Linux driver +
// DoomPicoDriver fast path on the shared pico::FastPathPort.
//
// Covers the §3.2 DWARF round trip against the doom module binary (three
// shipped versions plus negative binds), the slow path's per-4K-page PTE
// programming vs the fast path's per-extent programming, the shared
// fence-sequence/dva-cursor image fields both kernels advance, and the
// failure-injection rungs: ring stall → bounded backoff → Linux fallback,
// lost completion IRQ → wait-fence recovery, poisoned PTE → device parked →
// EIO protocol → reset.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/units.hpp"
#include "src/doom/driver.hpp"
#include "src/hfi/driver.hpp"
#include "src/pico/doom_picodriver.hpp"
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

enum class Mode { linux_native, offload, fastpath };

struct DoomRig {
  sim::Engine engine;
  os::Config cfg;
  mem::PhysMap phys = mem::PhysMap::knl(1_GiB, 4_GiB, 2);
  std::unique_ptr<hw::DoomDevice> device;
  std::unique_ptr<os::LinuxKernel> linux_kernel;
  std::unique_ptr<os::Ihk> ihk;
  std::unique_ptr<os::McKernel> mck;
  std::unique_ptr<doom::DoomDriver> driver;
  std::unique_ptr<pico::DoomPicoDriver> pico;

  explicit DoomRig(Mode mode, const std::string& version = "0.9-d6",
                   hw::DoomConfig dc = {}) {
    device = std::make_unique<hw::DoomDevice>(engine, 0, dc);
    linux_kernel = std::make_unique<os::LinuxKernel>(engine, cfg);
    driver = std::make_unique<doom::DoomDriver>(*linux_kernel, *device, version);
    if (mode != Mode::linux_native) {
      ihk = std::make_unique<os::Ihk>(engine, cfg, *linux_kernel);
      mck = std::make_unique<os::McKernel>(engine, cfg, *ihk, /*unified_layout=*/true);
      if (mode == Mode::fastpath) {
        auto p = pico::DoomPicoDriver::create(*mck, *driver);
        EXPECT_TRUE(p.ok());
        if (p.ok()) pico = std::move(*p);
      }
    }
  }

  std::unique_ptr<os::Process> make_process(int ctxt, Mode mode) {
    if (mode == Mode::linux_native)
      return std::make_unique<os::Process>(*linux_kernel, phys, 0, ctxt,
                                           1000u + static_cast<unsigned>(ctxt));
    return std::make_unique<os::Process>(*mck, phys, 0, ctxt,
                                         1000u + static_cast<unsigned>(ctxt));
  }
};

/// open("/dev/pd_doom0") + kDoomCreateCtx; returns the fd.
sim::Task<Result<int>> open_ctx(os::Process& p) {
  auto fd = co_await p.open(doom::kDeviceName);
  if (!fd.ok()) co_return fd.error();
  auto r = co_await p.ioctl(*fd, doom::kDoomCreateCtx, nullptr);
  if (!r.ok()) co_return r.error();
  co_return *fd;
}

sim::Task<Result<long>> wait_fence(os::Process& p, int fd, std::uint64_t seq) {
  doom::DoomWaitFenceArgs w;
  w.seq = seq;
  co_return co_await p.ioctl(fd, doom::kDoomWaitFence, &w);
}

// --- §3.2 round trip against the doom module binary -----------------------

TEST(DoomLayoutVersions, ExtractedOffsetsMatchDriverForEveryVersion) {
  for (const char* version : {"0.9-d6", "1.1-d2", "2.0-d1"}) {
    DoomRig r(Mode::fastpath, version);
    ASSERT_NE(r.pico, nullptr) << version;
    const auto& layouts = r.driver->layouts();
    for (const char* sname : {"doom_devdata", "doom_ringstate", "doom_ctx"}) {
      const dwarf::StructDef* truth = layouts.structure(sname);
      const dwarf::StructLayout* bound = r.pico->binding().layout(sname);
      ASSERT_NE(truth, nullptr);
      ASSERT_NE(bound, nullptr) << sname << " " << version;
      EXPECT_EQ(bound->byte_size, truth->byte_size) << sname << " " << version;
      for (const auto& f : bound->fields) {
        const dwarf::FieldDef* tf = truth->field(f.name);
        ASSERT_NE(tf, nullptr) << sname << "." << f.name;
        EXPECT_EQ(f.offset, tf->offset) << sname << "." << f.name << " @ " << version;
        EXPECT_EQ(f.size, tf->size) << sname << "." << f.name << " @ " << version;
      }
    }
    EXPECT_EQ(r.pico->binding().driver_version(), std::string("pd_doom ") + version);
  }
}

TEST(DoomLayoutVersions, OffsetsActuallyDifferAcrossVersions) {
  auto l1 = dwarf::LayoutTable::for_version(doom::layout_spec(), "0.9-d6");
  auto l2 = dwarf::LayoutTable::for_version(doom::layout_spec(), "2.0-d1");
  ASSERT_TRUE(l1.ok() && l2.ok());
  EXPECT_NE(l1->structure("doom_ctx")->field("pt_used")->offset,
            l2->structure("doom_ctx")->field("pt_used")->offset);
  EXPECT_NE(l1->structure("doom_devdata")->field("fence_seq")->offset,
            l2->structure("doom_devdata")->field("fence_seq")->offset);
  EXPECT_EQ(dwarf::LayoutTable::for_version(doom::layout_spec(), "3.0-x9").error(),
            Errno::enoent);
}

// --- the six shipped module binaries, byte for byte ------------------------
// Size and FNV-1a hash of each release's serialized module: any change to
// how the layout tables are written out as DWARF shows up here.

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct ModulePin {
  const char* version;
  std::size_t size;
  std::uint64_t fnv1a;
};

TEST(ShippedModules, HfiBinariesArePinned) {
  for (const ModulePin& pin : {ModulePin{"10.8-0", 1315, 0x148ec28a55ca10ebull},
                               ModulePin{"10.9-5", 1315, 0x754c568e0e828bf7ull},
                               ModulePin{"11.0-2", 1315, 0x203c0a05caf02f1dull}}) {
    sim::Engine engine;
    os::Config cfg;
    hw::Fabric fabric(engine, 1);
    hw::HfiDevice device(engine, fabric, 0);
    os::LinuxKernel linux_kernel(engine, cfg);
    hfi::HfiDriver driver(linux_kernel, device, pin.version);
    const std::vector<std::uint8_t> bytes = driver.module_binary().serialize();
    EXPECT_EQ(bytes.size(), pin.size) << pin.version;
    EXPECT_EQ(fnv1a64(bytes), pin.fnv1a) << pin.version;
  }
}

TEST(ShippedModules, DoomBinariesArePinned) {
  for (const ModulePin& pin : {ModulePin{"0.9-d6", 910, 0x2ceb01fed75d25a9ull},
                               ModulePin{"1.1-d2", 910, 0x147c61f88bf52da3ull},
                               ModulePin{"2.0-d1", 910, 0x2a4c43df464868edull}}) {
    DoomRig r(Mode::linux_native, pin.version);
    const std::vector<std::uint8_t> bytes = r.driver->module_binary().serialize();
    EXPECT_EQ(bytes.size(), pin.size) << pin.version;
    EXPECT_EQ(fnv1a64(bytes), pin.fnv1a) << pin.version;
  }
}

TEST(DoomBind, MissingStructureOrFieldFailsBind) {
  DoomRig r(Mode::fastpath);
  ASSERT_NE(r.mck, nullptr);
  auto missing_field = pico::PicoBinding::bind(
      *r.mck, *r.linux_kernel, r.driver->module_binary(),
      {{"doom_devdata", {"fence_seq", "does_not_exist"}}});
  ASSERT_FALSE(missing_field.ok());
  EXPECT_TRUE(missing_field.error() == Errno::enoent ||
              missing_field.error() == Errno::einval)
      << to_string(missing_field.error());
  auto missing_struct = pico::PicoBinding::bind(
      *r.mck, *r.linux_kernel, r.driver->module_binary(), {{"doom_shadow", {"x"}}});
  ASSERT_FALSE(missing_struct.ok());
  EXPECT_TRUE(missing_struct.error() == Errno::enoent ||
              missing_struct.error() == Errno::einval)
      << to_string(missing_struct.error());
}

// --- slow path (Linux driver) ---------------------------------------------

TEST(DoomSlowPath, SubmitProgramsOnePtePer4KPage) {
  DoomRig r(Mode::linux_native);
  auto proc = r.make_process(0, Mode::linux_native);
  int fenced = 0;
  sim::spawn(r.engine, [](DoomRig& rig, os::Process& p, int& done) -> sim::Task<> {
    auto fd = co_await open_ctx(p);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(64_KiB);
    CO_ASSERT_TRUE(buf.ok());
    doom::DoomSubmitArgs args;
    args.cmds.push_back({static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *buf, 0, 64_KiB});
    // Unaligned source: starts 128 bytes into a page, so the driver pins and
    // maps 2 whole frames for 8000 bytes and issues the command at off 128.
    args.cmds.push_back(
        {static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *buf + 128, 0, 8000});
    args.on_fence = [&done] { ++done; };
    auto n = co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &args);
    CO_ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 2L);
    EXPECT_EQ(args.fence_seq, 1u);
    CO_ASSERT_TRUE((co_await wait_fence(p, *fd, args.fence_seq)).ok());
    // The completion chain tore down the batch's transient PTEs and pins.
    EXPECT_EQ(rig.device->pt_entries_used(0), 0u);
    EXPECT_EQ(p.as().pinned_frame_count(), 0u);
  }(r, *proc, fenced));
  r.engine.run();
  EXPECT_EQ(fenced, 1);
  EXPECT_EQ(r.driver->submit_batches(), 1u);
  // 16 pages for the 64 KiB buffer + 2 for the straddling 8000-byte window.
  EXPECT_EQ(r.driver->pte_programs(), 18u);
  EXPECT_EQ(r.device->commands_retired(), 3u);  // 2 work + 1 fence
  EXPECT_EQ(r.device->fences_retired(), 1u);
  EXPECT_EQ(r.device->dma_bytes(), 64_KiB + 8000u);
  EXPECT_EQ(r.driver->fences_dispatched(), 1u);
}

TEST(DoomSlowPath, MapBufferWindowIsPersistentUntilClose) {
  DoomRig r(Mode::linux_native);
  auto proc = r.make_process(0, Mode::linux_native);
  sim::spawn(r.engine, [](DoomRig& rig, os::Process& p) -> sim::Task<> {
    auto fd = co_await open_ctx(p);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(128_KiB);
    CO_ASSERT_TRUE(buf.ok());
    doom::DoomMapBufferArgs map;
    map.va = *buf;
    map.len = 128_KiB;
    auto pages = co_await p.ioctl(*fd, doom::kDoomMapBuffer, &map);
    CO_ASSERT_TRUE(pages.ok());
    EXPECT_EQ(*pages, 32L);
    EXPECT_NE(map.dva, 0u);
    EXPECT_EQ(rig.device->pt_entries_used(0), 32u);
    EXPECT_EQ(rig.driver->pte_programs(), 32u);

    // Submitting against the pre-mapped window adds no transient PTEs.
    doom::DoomSubmitArgs args;
    args.cmds.push_back(
        {static_cast<std::uint32_t>(hw::DoomOp::copy_rect), 0, map.dva, 128_KiB});
    auto n = co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &args);
    CO_ASSERT_TRUE(n.ok());
    CO_ASSERT_TRUE((co_await wait_fence(p, *fd, args.fence_seq)).ok());
    EXPECT_EQ(rig.driver->pte_programs(), 32u) << "no new PTEs for a mapped window";
    EXPECT_EQ(rig.device->pt_entries_used(0), 32u) << "persistent mapping survives fences";
    EXPECT_EQ(rig.device->dma_bytes(), 128_KiB);

    CO_ASSERT_TRUE((co_await p.close_fd(*fd)).ok());
    EXPECT_FALSE(rig.device->context_open(0)) << "close tears the hw context down";
    EXPECT_EQ(p.as().pinned_frame_count(), 0u) << "persistent pins released at close";
  }(r, *proc));
  r.engine.run();
}

TEST(DoomSlowPath, WrappingRangeFaults) {
  // A length whose end wraps past 2^64 is refused with EFAULT before a page
  // count is derived from it: by submit and map on the Linux driver, and by
  // submit on the fast path.
  for (const Mode mode : {Mode::linux_native, Mode::fastpath}) {
    SCOPED_TRACE(mode == Mode::linux_native ? "linux" : "fastpath");
    DoomRig r(mode);
    auto proc = r.make_process(0, mode);
    sim::spawn(r.engine, [](DoomRig& rig, os::Process& p, Mode m) -> sim::Task<> {
      auto fd = co_await open_ctx(p);
      CO_ASSERT_TRUE(fd.ok());
      auto buf = co_await p.mmap_anon(64_KiB);
      CO_ASSERT_TRUE(buf.ok());
      const std::uint64_t wrapping = ~std::uint64_t{0} - *buf + 2;  // *buf + len == 1
      doom::DoomSubmitArgs args;
      args.cmds.push_back({static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *buf, 0, wrapping});
      EXPECT_EQ((co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &args)).error(), Errno::efault);
      if (m == Mode::linux_native) {
        doom::DoomMapBufferArgs map;
        map.va = *buf;
        map.len = wrapping;
        EXPECT_EQ((co_await p.ioctl(*fd, doom::kDoomMapBuffer, &map)).error(), Errno::efault);
      }
      EXPECT_EQ(rig.device->pt_entries_used(0), 0u);
    }(r, *proc, mode));
    r.engine.run();
  }
}

// --- fast path (DoomPicoDriver on FastPathPort) ---------------------------

TEST(DoomFastPath, SubmitProgramsPerExtentAndSharesFenceCounter) {
  DoomRig r(Mode::fastpath);
  auto proc = r.make_process(0, Mode::fastpath);
  auto lnx_proc = r.make_process(1, Mode::linux_native);
  int fenced = 0;
  sim::spawn(r.engine,
             [](DoomRig& rig, os::Process& p, os::Process& lp, int& done) -> sim::Task<> {
    auto fd = co_await open_ctx(p);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(256_KiB);
    CO_ASSERT_TRUE(buf.ok());

    doom::DoomSubmitArgs args;
    args.cmds.push_back(
        {static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *buf, 0, 256_KiB});
    args.on_fence = [&done] { ++done; };
    auto n = co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &args);
    CO_ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 1L);
    EXPECT_EQ(args.fence_seq, 1u);
    CO_ASSERT_TRUE((co_await wait_fence(p, *fd, args.fence_seq)).ok());
    co_await p.nanosleep(50_us);  // let the completion bottom half run
    EXPECT_EQ(rig.device->pt_entries_used(0), 0u) << "transient extents unmapped at fence";

    // Resubmit of the same window: the per-file extent cache must hit.
    doom::DoomSubmitArgs again;
    again.cmds.push_back(
        {static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *buf, 0, 256_KiB});
    again.on_fence = [&done] { ++done; };
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &again)).ok());
    EXPECT_EQ(again.fence_seq, 2u);
    CO_ASSERT_TRUE((co_await wait_fence(p, *fd, again.fence_seq)).ok());

    // A Linux-native submitter continues the *same* fence sequence — both
    // kernels advance the one doom_devdata.fence_seq image field.
    auto lfd = co_await open_ctx(lp);
    CO_ASSERT_TRUE(lfd.ok());
    auto lbuf = co_await lp.mmap_anon(16_KiB);
    CO_ASSERT_TRUE(lbuf.ok());
    doom::DoomSubmitArgs slow;
    slow.cmds.push_back(
        {static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *lbuf, 0, 16_KiB});
    CO_ASSERT_TRUE((co_await lp.ioctl(*lfd, doom::kDoomSubmitBatch, &slow)).ok());
    EXPECT_EQ(slow.fence_seq, 3u) << "fence counter must be shared across kernels";
    CO_ASSERT_TRUE((co_await wait_fence(lp, *lfd, slow.fence_seq)).ok());
  }(r, *proc, *lnx_proc, fenced));
  r.engine.run();

  EXPECT_EQ(fenced, 2);
  EXPECT_EQ(r.pico->fast_submits(), 2u);
  EXPECT_EQ(r.pico->fallbacks(), 0u);
  EXPECT_EQ(r.driver->submit_batches(), 1u) << "only the Linux-native batch";
  // 256 KiB of contiguous LWK backing: an extent-sized PTE or two per
  // submit, versus the slow path's 64-per-submit page blindness.
  EXPECT_GE(r.pico->extents_programmed(), 2u);
  EXPECT_LE(r.pico->extents_programmed(), 8u);
  EXPECT_GE(r.pico->extent_cache_hits(), 1u);
  EXPECT_EQ(r.mck->profiler().counter("pico.extent_cache.hit"),
            r.pico->extent_cache_hits());
  EXPECT_EQ(r.device->dma_bytes(), 512_KiB + 16_KiB);
  EXPECT_EQ(r.device->fences_retired(), 3u);
}

TEST(DoomFastPath, GuardsRejectBadBatches) {
  DoomRig r(Mode::fastpath);
  auto proc = r.make_process(0, Mode::fastpath);
  sim::spawn(r.engine, [](os::Process& p) -> sim::Task<> {
    auto fd = co_await p.open(doom::kDeviceName);
    CO_ASSERT_TRUE(fd.ok());
    doom::DoomSubmitArgs args;
    args.cmds.push_back({static_cast<std::uint32_t>(hw::DoomOp::fill_rect), 0x9000, 0, 4_KiB});
    // No hw context yet (kDoomCreateCtx never issued).
    auto r1 = co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &args);
    EXPECT_EQ(r1.error(), Errno::enodev);
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, doom::kDoomCreateCtx, nullptr)).ok());
    doom::DoomSubmitArgs empty;
    auto r2 = co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &empty);
    EXPECT_EQ(r2.error(), Errno::einval);
    doom::DoomSubmitArgs unmapped;  // src_va == 0 && dva == 0
    unmapped.cmds.push_back({static_cast<std::uint32_t>(hw::DoomOp::copy_rect), 0, 0, 4_KiB});
    auto r3 = co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &unmapped);
    EXPECT_EQ(r3.error(), Errno::einval);
  }(*proc));
  r.engine.run();
}

// --- failure-injection rung 1: ring stall → bounded backoff → fallback ----

TEST(DoomFailure, RingStallFallsBackToLinuxAndDrainsAfterClear) {
  hw::DoomConfig dc;
  dc.ring_slots = 8;
  DoomRig r(Mode::fastpath, "0.9-d6", dc);
  r.cfg.pico_ring_backoff_attempts = 2;
  r.cfg.pico_ring_backoff_base = 100_ns;
  auto proc = r.make_process(0, Mode::fastpath);
  int fenced = 0;
  sim::spawn(r.engine, [](DoomRig& rig, os::Process& p, int& done) -> sim::Task<> {
    auto fd = co_await open_ctx(p);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(32_KiB);
    CO_ASSERT_TRUE(buf.ok());
    auto cmd = [&](int i) {
      return doom::DoomUserCmd{static_cast<std::uint32_t>(hw::DoomOp::fill_rect),
                               *buf + static_cast<std::uint64_t>(i) * 4_KiB, 0, 4_KiB};
    };

    rig.device->inject_ring_stall(true);
    // Batch 1 (2 cmds + fence = 3 of 8 slots): reserves fine, nothing drains.
    doom::DoomSubmitArgs first;
    first.cmds = {cmd(0), cmd(1)};
    first.on_fence = [&done] { ++done; };
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &first)).ok());
    EXPECT_EQ(rig.pico->fast_submits(), 1u);
    EXPECT_EQ(rig.pico->ring_full_fallbacks(), 0u);

    // Batch 2 needs 6 slots but only 5 remain in the wedged ring: the fast
    // path's bounded backoff cannot outwait a stall, so it must hand the
    // batch to the Linux path (whose waiter is unbounded).
    rig.engine.schedule_after(from_us(200),
                              [&rig] { rig.device->inject_ring_stall(false); });
    doom::DoomSubmitArgs second;
    second.cmds = {cmd(0), cmd(1), cmd(2), cmd(3), cmd(4)};
    second.on_fence = [&done] { ++done; };
    auto n = co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &second);
    CO_ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 5L);
    CO_ASSERT_TRUE((co_await wait_fence(p, *fd, second.fence_seq)).ok());
    co_await p.nanosleep(50_us);  // let the completion bottom halves run
    EXPECT_EQ(rig.device->pt_entries_used(0), 0u) << "both batches fully cleaned up";
    // (LWK mmap_anon backing stays pinned by design, so no pin-count check.)
  }(r, *proc, fenced));
  r.engine.run();

  EXPECT_EQ(fenced, 2) << "both batches must complete after the stall clears";
  EXPECT_EQ(r.pico->fast_submits(), 2u);
  EXPECT_EQ(r.pico->ring_full_fallbacks(), 1u);
  EXPECT_EQ(r.pico->fallbacks(), 1u);
  EXPECT_EQ(r.mck->profiler().counter("pico.ring_full_fallback"), 1u);
  EXPECT_EQ(r.driver->submit_batches(), 1u) << "fallback must reuse the Linux path";
  EXPECT_EQ(r.device->commands_retired(), 9u);  // 2 + 5 work, 2 fences
  EXPECT_EQ(r.device->fences_retired(), 2u);
}

// --- failure-injection rung 2: lost completion IRQ → recovery --------------

TEST(DoomFailure, LostFenceIrqRecoveredByWaitFence) {
  DoomRig r(Mode::fastpath);
  auto proc = r.make_process(0, Mode::fastpath);
  int fenced = 0;
  sim::spawn(r.engine, [](DoomRig& rig, os::Process& p, int& done) -> sim::Task<> {
    auto fd = co_await open_ctx(p);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(16_KiB);
    CO_ASSERT_TRUE(buf.ok());
    rig.device->inject_lost_irq(1);
    doom::DoomSubmitArgs args;
    args.cmds.push_back(
        {static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *buf, 0, 16_KiB});
    args.on_fence = [&done] { ++done; };
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &args)).ok());
    // The fence retired in hardware but its IRQ was swallowed; only the
    // wait-fence poll's retire-register check can dispatch the chain.
    CO_ASSERT_TRUE((co_await wait_fence(p, *fd, args.fence_seq)).ok());
    co_await p.nanosleep(50_us);  // let the recovered bottom half run
    EXPECT_EQ(rig.device->pt_entries_used(0), 0u)
        << "recovery must run the same cleanup chain";
  }(r, *proc, fenced));
  r.engine.run();

  EXPECT_EQ(fenced, 1) << "the user notification must not be lost with the IRQ";
  EXPECT_EQ(r.device->irqs_lost(), 1u);
  EXPECT_EQ(r.driver->irqs_recovered(), 1u);
  EXPECT_EQ(r.linux_kernel->profiler().counter("doom.irq.recovered"), 1u);
  EXPECT_EQ(r.driver->fences_dispatched(), 1u);
}

// --- failure-injection rung 3: poisoned PTE → EIO protocol → reset ---------

TEST(DoomFailure, PoisonedPteParksDeviceUntilReset) {
  DoomRig r(Mode::fastpath);
  auto proc = r.make_process(0, Mode::fastpath);
  auto lnx_proc = r.make_process(1, Mode::linux_native);
  sim::spawn(r.engine,
             [](DoomRig& rig, os::Process& p, os::Process& lp) -> sim::Task<> {
    auto fd = co_await open_ctx(p);
    CO_ASSERT_TRUE(fd.ok());
    auto buf = co_await p.mmap_anon(32_KiB);
    CO_ASSERT_TRUE(buf.ok());
    doom::DoomMapBufferArgs map;
    map.va = *buf;
    map.len = 32_KiB;
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, doom::kDoomMapBuffer, &map)).ok());
    CO_ASSERT_TRUE(rig.device->poison_pte(0, map.dva).ok());

    // The submit itself succeeds — the fault fires when the device fetches
    // through the poisoned mapping. The fence still retires (the device
    // drops the faulting command and parks its sticky error flag).
    doom::DoomSubmitArgs args;
    args.cmds.push_back(
        {static_cast<std::uint32_t>(hw::DoomOp::copy_rect), 0, map.dva, 32_KiB});
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &args)).ok());
    CO_ASSERT_TRUE((co_await wait_fence(p, *fd, args.fence_seq)).ok());
    EXPECT_EQ(rig.device->pte_faults(), 1u);
    EXPECT_TRUE(rig.device->faulted());
    EXPECT_EQ(rig.device->dma_bytes(), 0u) << "the poisoned fetch must not transfer";

    // A Linux-side submit notices the parked device, mirrors the fault into
    // the doom_ringstate image, and returns EIO.
    auto lfd = co_await open_ctx(lp);
    CO_ASSERT_TRUE(lfd.ok());
    auto lbuf = co_await lp.mmap_anon(4_KiB);
    CO_ASSERT_TRUE(lbuf.ok());
    doom::DoomSubmitArgs slow;
    slow.cmds.push_back(
        {static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *lbuf, 0, 4_KiB});
    auto lr = co_await lp.ioctl(*lfd, doom::kDoomSubmitBatch, &slow);
    EXPECT_EQ(lr.error(), Errno::eio);
    EXPECT_EQ(rig.linux_kernel->profiler().counter("doom.device.fault"), 1u);

    // The fast path reads run_state == error through the extracted offsets
    // and defers to the Linux error protocol: fallback, then EIO.
    const auto fallbacks_before = rig.pico->fallbacks();
    doom::DoomSubmitArgs fast;
    fast.cmds.push_back(
        {static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *buf, 0, 4_KiB});
    auto fr = co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &fast);
    EXPECT_EQ(fr.error(), Errno::eio);
    EXPECT_EQ(rig.pico->fallbacks(), fallbacks_before + 1);

    // Reset clears the device and the image; submission works again.
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, doom::kDoomResetError, nullptr)).ok());
    EXPECT_FALSE(rig.device->faulted());
    doom::DoomSubmitArgs healthy;
    healthy.cmds.push_back(
        {static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *buf, 0, 4_KiB});
    CO_ASSERT_TRUE((co_await p.ioctl(*fd, doom::kDoomSubmitBatch, &healthy)).ok());
    CO_ASSERT_TRUE((co_await wait_fence(p, *fd, healthy.fence_seq)).ok());
    EXPECT_EQ(rig.device->dma_bytes(), 4_KiB);
  }(r, *proc, *lnx_proc));
  r.engine.run();
}

// --- the FastPathPort refactor: two device classes, one LWK ----------------

TEST(FastPathPort, HfiAndDoomPortsCoexistOnOneLwk) {
  sim::Engine engine;
  os::Config cfg;
  mem::PhysMap phys = mem::PhysMap::knl(1_GiB, 4_GiB, 2);
  hw::Fabric fabric(engine, 1);
  hw::HfiDevice hfi_device(engine, fabric, 0);
  hw::DoomDevice doom_device(engine, 0);
  os::LinuxKernel linux_kernel(engine, cfg);
  hfi::HfiDriver hfi_driver(linux_kernel, hfi_device, "10.8-0");
  doom::DoomDriver doom_driver(linux_kernel, doom_device, "0.9-d6");
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, /*unified_layout=*/true);
  auto hfi_pico = pico::HfiPicoDriver::create(mck, hfi_driver);
  auto doom_pico = pico::DoomPicoDriver::create(mck, doom_driver);
  ASSERT_TRUE(hfi_pico.ok());
  ASSERT_TRUE(doom_pico.ok()) << "a second binding must reuse the vmap reservation";
  EXPECT_EQ((*hfi_pico)->binding().driver_version(), "hfi1 10.8-0");
  EXPECT_EQ((*doom_pico)->binding().driver_version(), "pd_doom 0.9-d6");

  os::Process proc(mck, phys, 0, 0, 7);
  sim::spawn(engine, [](os::Process& p, hw::HfiDevice& hdev) -> sim::Task<> {
    // One process drives both device classes through their fast paths.
    auto hfd = co_await p.open(hfi::kDeviceName);
    CO_ASSERT_TRUE(hfd.ok());
    auto buf = co_await p.mmap_anon(2_MiB);
    CO_ASSERT_TRUE(buf.ok());
    hfi::TidUpdateArgs tid;
    tid.vaddr = *buf;
    tid.length = 2_MiB;
    CO_ASSERT_TRUE((co_await p.ioctl(*hfd, hfi::kTidUpdate, &tid)).ok());
    hfi::TidFreeArgs tf;
    tf.tids = tid.tids;
    CO_ASSERT_TRUE((co_await p.ioctl(*hfd, hfi::kTidFree, &tf)).ok());
    EXPECT_EQ(hdev.rcv_array().in_use(), 0u);

    auto dfd = co_await open_ctx(p);
    CO_ASSERT_TRUE(dfd.ok());
    doom::DoomSubmitArgs args;
    args.cmds.push_back(
        {static_cast<std::uint32_t>(hw::DoomOp::copy_rect), *buf, 0, 64_KiB});
    CO_ASSERT_TRUE((co_await p.ioctl(*dfd, doom::kDoomSubmitBatch, &args)).ok());
    CO_ASSERT_TRUE((co_await wait_fence(p, *dfd, args.fence_seq)).ok());
  }(proc, hfi_device));
  engine.run();

  EXPECT_EQ((*hfi_pico)->fast_tid_updates(), 1u);
  EXPECT_EQ((*doom_pico)->fast_submits(), 1u);
  EXPECT_EQ((*hfi_pico)->fallbacks(), 0u);
  EXPECT_EQ((*doom_pico)->fallbacks(), 0u);
  // Each port keeps its own per-file extent caches but shares the profiler
  // namespace: both classes' lookups land in pico.extent_cache.*.
  EXPECT_GE((*hfi_pico)->extent_cache_misses(), 1u);
  EXPECT_GE((*doom_pico)->extent_cache_misses(), 1u);
  EXPECT_EQ(mck.profiler().sum_counters("pico.extent_cache."),
            (*hfi_pico)->extent_cache_misses() + (*hfi_pico)->extent_cache_hits() +
                (*doom_pico)->extent_cache_misses() + (*doom_pico)->extent_cache_hits());
}

}  // namespace
}  // namespace pd
