// Extending the framework to a second driver — the paper's future work
// ("we intend to ... port memory registration routines from the Mellanox
// Infiniband driver", §6).
//
// This example builds a miniature "mlx" driver whose slow path registers
// memory regions page by page (get_user_pages + one MTT entry per 4 KiB
// page), ships it with DWARF debug info, and then writes a PicoDriver for
// it in ~80 lines using the same PicoBinding framework the HFI PicoDriver
// uses: bind → extract `mlx_mr_table` offsets → install a fast ioctl that
// walks LWK page tables and programs one MTT entry per contiguous extent.
#include <cstdio>

#include "src/common/units.hpp"
#include "src/dwarf/constants.hpp"
#include "src/dwarf/writer.hpp"
#include "src/mem/phys.hpp"
#include "src/os/process.hpp"
#include "src/pico/framework.hpp"

using namespace pd;
using namespace pd::time_literals;

namespace {

enum MlxIoctl : unsigned long { kRegMr = 0xC101, kDeregMr = 0xC102 };

struct RegMrArgs {
  mem::VirtAddr vaddr = 0;
  std::uint64_t length = 0;
  std::uint32_t mtt_entries = 0;  // out
};

/// The "vendor" driver: registers MRs with one MTT entry per page.
class MlxDriver final : public os::CharDevice {
 public:
  MlxDriver(os::LinuxKernel& linux_kernel) : linux_(linux_kernel) {
    // Driver state image: struct mlx_mr_table { mtt_used; max_mtt; }.
    auto addr = linux_.kheap().kmalloc(64, 0);
    table_ = *addr;
    linux_.register_device(*this);
  }

  std::string dev_name() const override { return "/dev/mlx5_0"; }

  /// Ship the module binary with debug info — the only thing the
  /// PicoDriver is allowed to learn the layout from.
  dwarf::ModuleBinary ship() const {
    dwarf::InfoBuilder b;
    auto u32 = b.add_base_type("unsigned int", 4, dwarf::DW_ATE_unsigned);
    auto u64 = b.add_base_type("long unsigned int", 8, dwarf::DW_ATE_unsigned);
    std::vector<dwarf::InfoBuilder::Member> members;
    members.push_back({"mtt_base", u64, 0});
    members.push_back({"mtt_used", u32, 16});
    members.push_back({"max_mtt", u32, 20});
    b.add_struct("mlx_mr_table", 64, std::move(members));
    auto dbg = b.build("mlx5_core 5.8-1", "mlx5_core.ko");
    dwarf::ModuleBinary mod;
    mod.set_version("mlx5_core 5.8-1");
    mod.set_debug_info(dbg);
    return mod;
  }

  mem::PhysAddr table_image() const { return table_; }

  sim::Task<Result<long>> open(os::OpenFile&) override { co_return 0L; }

  sim::Task<Result<long>> ioctl(os::OpenFile& f, unsigned long cmd, void* arg) override {
    if (cmd != kRegMr) co_return Errno::einval;
    auto* args = static_cast<RegMrArgs*>(arg);
    mem::AddressSpace& as = f.proc->as();
    const auto pages = mem::page_ceil(args->length, mem::kPage4K) / mem::kPage4K;
    co_await linux_.engine().delay(static_cast<Dur>(pages) * from_ns(150));  // gup + MTT
    auto pinned = as.get_user_pages(args->vaddr, args->length);
    if (!pinned.ok()) co_return pinned.error();
    args->mtt_entries = static_cast<std::uint32_t>(pinned->frames.size());
    as.put_user_pages(*pinned);  // demo: don't keep the region
    co_return 0L;
  }

  sim::Task<Result<long>> close(os::OpenFile&) override { co_return 0L; }

 private:
  os::LinuxKernel& linux_;
  mem::PhysAddr table_ = 0;
};

}  // namespace

int main() {
  sim::Engine engine;
  os::Config cfg;
  mem::PhysMap phys = mem::PhysMap::knl(512_MiB, 1ull << 30, 2);
  os::LinuxKernel linux_kernel(engine, cfg);
  os::Ihk ihk(engine, cfg, linux_kernel);
  os::McKernel mck(engine, cfg, ihk, /*unified_layout=*/true);
  MlxDriver driver(linux_kernel);

  // --- the whole "mlx PicoDriver" -----------------------------------------
  auto binding = pico::PicoBinding::bind(mck, linux_kernel, driver.ship(),
                                         {{"mlx_mr_table", {"mtt_used", "max_mtt"}}});
  if (!binding.ok()) {
    std::printf("bind failed\n");
    return 1;
  }
  std::printf("bound %s; mtt_used @ offset %llu (from DWARF, not headers)\n",
              binding->driver_version().c_str(),
              static_cast<unsigned long long>(
                  binding->layout("mlx_mr_table")->field("mtt_used")->offset));

  dwarf::FieldAccessor<std::uint32_t> mtt_used(*binding->layout("mlx_mr_table")
                                                    ->field("mtt_used"));
  if (!mtt_used.bound()) {
    std::printf("mtt_used is not a 4-byte field in this module\n");
    return 1;
  }
  std::uint32_t fast_entries = 0;
  os::FastPathOps ops;
  ops.ioctl_handles = [](unsigned long cmd) { return cmd == kRegMr; };
  ops.ioctl = [&](os::OpenFile& f, unsigned long, void* arg) -> sim::Task<Result<long>> {
    auto* args = static_cast<RegMrArgs*>(arg);
    mem::AddressSpace& as = f.proc->as();
    // LWK fast path: pinned-by-policy memory, page-table walk, one MTT
    // entry per physically contiguous extent.
    auto extents = as.physical_extents(args->vaddr, args->length, mem::kPage2M);
    if (!extents.ok()) co_return extents.error();
    co_await mck.engine().delay(static_cast<Dur>(extents->size()) * from_ns(150));
    args->mtt_entries = static_cast<std::uint32_t>(extents->size());
    fast_entries += args->mtt_entries;
    // Update the shared driver table through the extracted offset.
    auto bytes = linux_kernel.kheap().data(driver.table_image());
    mtt_used.write(bytes.data(), mtt_used.read(bytes.data()) + args->mtt_entries);
    co_return 0L;
  };
  mck.register_fastpath(driver, std::move(ops));

  // --- exercise both paths -------------------------------------------------
  os::Process lwk_proc(mck, phys, 0, 0, 11);
  sim::spawn(engine, [](os::Process& proc, MlxDriver& drv) -> sim::Task<> {
    auto fd = co_await proc.open(drv.dev_name());
    auto buf = co_await proc.mmap_anon(8_MiB);
    RegMrArgs args;
    args.vaddr = *buf;
    args.length = 8_MiB;
    auto r = co_await proc.ioctl(*fd, kRegMr, &args);
    std::printf("LWK fast-path reg_mr(8 MiB): rc=%ld, MTT entries=%u "
                "(Linux path would use %llu)\n",
                r.ok() ? *r : -1L, args.mtt_entries,
                static_cast<unsigned long long>(8_MiB / mem::kPage4K));
  }(lwk_proc, driver));
  engine.run();

  auto bytes = linux_kernel.kheap().data(driver.table_image());
  const std::uint32_t used = mtt_used.read(bytes.data());
  std::printf("driver's mlx_mr_table.mtt_used (read back via DWARF offset): %u\n", used);
  if (fast_entries == 0 || used != fast_entries) {
    std::printf("reg_mr did not take the fast path\n");
    return 1;
  }
  std::printf("\nThat is the whole recipe: ship debug info, bind, install a fast path.\n");
  return 0;
}
