// A guided tour of the PicoDriver mechanisms from paper §3, one at a time:
//
//   1. why the original McKernel VA layout cannot host a PicoDriver
//      (§3.1 unification requirements, checked and reported);
//   2. DWARF structure extraction from the shipped module binary (§3.2),
//      including the generated Listing-1 header;
//   3. the split data path in action: a fast-path writev from the LWK,
//      the Linux-side completion IRQ invoking a callback that lives in
//      McKernel TEXT, and the cross-kernel kfree flowing through the
//      remote-free queue (§3.3);
//   4. the §3.4 payoff: descriptor sizes with and without the fast path.
#include <cstdio>

#include "src/common/units.hpp"
#include "src/hfi/driver.hpp"
#include "src/pico/hfi_picodriver.hpp"

using namespace pd;

namespace {

sim::Task<> demo_writev(os::Process& proc, hw::HfiDevice& peer_dev, bool* completed) {
  auto fd = co_await proc.open(hfi::kDeviceName);
  if (!fd.ok()) co_return;
  auto buf = co_await proc.mmap_anon(256_KiB);
  if (!buf.ok()) co_return;

  hfi::SdmaReqHeader hdr;
  hdr.wire.src_node = 0;
  hdr.wire.dst_node = 1;
  hdr.wire.dst_ctxt = 0;
  hdr.wire.kind = hw::WireKind::expected;
  hdr.wire.seq = 1;
  hdr.on_complete = [completed] { *completed = true; };
  peer_dev.open_context(0);

  std::vector<os::IoVec> iov{
      os::IoVec{reinterpret_cast<mem::VirtAddr>(&hdr), sizeof hdr},
      os::IoVec{*buf, 256_KiB}};
  auto r = co_await proc.writev(*fd, std::move(iov));
  std::printf("   writev(256 KiB) returned %ld\n", r.ok() ? *r : -1L);
}

}  // namespace

int main() {
  sim::Engine engine;
  os::Config cfg;
  hw::Fabric fabric(engine, 2);
  mem::PhysMap phys = mem::PhysMap::knl(512_MiB, 1ull << 30, 2);
  hw::HfiDevice device(engine, fabric, 0), peer(engine, fabric, 1);
  os::LinuxKernel linux_kernel(engine, cfg);
  hfi::HfiDriver driver(linux_kernel, device, "10.9-5");
  os::Ihk ihk(engine, cfg, linux_kernel);

  std::printf("== 1. Address-space unification (paper 3.1) ==\n");
  {
    const auto bad = mem::check_unification(mem::linux_layout(),
                                            mem::mckernel_original_layout());
    std::printf(" original McKernel layout: unified=%s\n", bad.unified() ? "yes" : "no");
    for (const auto& v : bad.violations) std::printf("   violation: %s\n", v.c_str());
    const auto good =
        mem::check_unification(mem::linux_layout(), mem::mckernel_unified_layout());
    std::printf(" PicoDriver McKernel layout: unified=%s (image moved to top of the\n"
                "   Linux module space, direct maps aliased)\n\n",
                good.unified() ? "yes" : "no");
  }

  os::McKernel mck(engine, cfg, ihk, /*unified_layout=*/true);

  std::printf("== 2. DWARF binding against the shipped module (paper 3.2) ==\n");
  auto pico = pico::HfiPicoDriver::create(mck, driver);
  if (!pico.ok()) {
    std::printf("bind failed\n");
    return 1;
  }
  std::printf(" bound driver: %s\n", (*pico)->binding().driver_version().c_str());
  auto header = (*pico)->binding().generated_header("sdma_state");
  std::printf(" generated header for sdma_state:\n%s\n", header->c_str());

  std::printf("== 3. Split data path + cross-kernel callback/kfree (paper 3.3) ==\n");
  os::Process proc(mck, phys, /*node=*/0, /*ctxt=*/0, /*seed=*/7);
  bool completed = false;
  sim::spawn(engine, demo_writev(proc, peer, &completed));
  engine.run();
  std::printf("   completion callback (McKernel TEXT, run by Linux IRQ): %s\n",
              completed ? "fired" : "MISSING");
  std::printf("   Linux callback faults: %llu (0 = LWK text visible via vmap_area)\n",
              static_cast<unsigned long long>(linux_kernel.callback_faults()));
  std::printf("   LWK remote-free queue: %llu block(s) parked by the Linux CPU\n",
              static_cast<unsigned long long>(mck.kheap().stats().remote_frees));
  const std::size_t drained = mck.kheap().drain_remote_frees();
  std::printf("   drained on the LWK scheduler tick: %zu block(s)\n\n", drained);

  std::printf("== 4. The 3.4 payoff ==\n");
  std::printf("   fast-path writevs: %llu, descriptors issued: %llu (mean %.0f bytes;\n"
              "   the unmodified Linux driver would have used 4096)\n",
              static_cast<unsigned long long>((*pico)->fast_writevs()),
              static_cast<unsigned long long>(device.total_descriptors()),
              device.total_descriptors()
                  ? static_cast<double>(device.total_descriptor_bytes()) /
                        device.total_descriptors()
                  : 0.0);
  return 0;
}
