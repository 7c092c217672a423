#include "src/mem/va_layout.hpp"

namespace pd::mem {

namespace {
constexpr std::uint64_t kTiB = 1ull << 40;
constexpr std::uint64_t kGiB = 1ull << 30;
}  // namespace

KernelLayout linux_layout() {
  KernelLayout l;
  l.kernel_name = "linux";
  l.user = {"user", 0, kUserVaEnd};
  l.direct_map = {"direct map of all phys (64TB)", 0xFFFF'8800'0000'0000ull,
                  0xFFFF'8800'0000'0000ull + 64 * kTiB};
  l.valloc = {"vmalloc()/ioremap()", 0xFFFF'C900'0000'0000ull, 0xFFFF'E8FF'FFFF'FFFFull};
  l.image = {"Linux TEXT/DATA/BSS", 0xFFFF'FFFF'8000'0000ull, 0xFFFF'FFFF'A000'0000ull};
  l.module_space = {"kernel module space", 0xFFFF'FFFF'A000'0000ull, 0xFFFF'FFFF'FF5F'FFFFull};
  return l;
}

KernelLayout mckernel_original_layout() {
  KernelLayout l;
  l.kernel_name = "mckernel-original";
  l.user = {"user", 0, kUserVaEnd};
  // Original McKernel: own small direct map at its own base, image linked
  // at the same VA as the Linux image (they are separate address spaces,
  // so this overlap was harmless — until PicoDriver needed mutual access).
  l.direct_map = {"direct map of all phys (256GB)", 0xFFFF'8000'0000'0000ull,
                  0xFFFF'8000'0000'0000ull + 256 * kGiB};
  l.valloc = {"virtual alloc() area", 0xFFFF'9000'0000'0000ull, 0xFFFF'90FF'FFFF'FFFFull};
  l.image = {"McKernel TEXT/DATA/BSS", 0xFFFF'FFFF'8000'0000ull, 0xFFFF'FFFF'8100'0000ull};
  l.module_space = {"", 0, 0};
  return l;
}

KernelLayout mckernel_unified_layout() {
  const KernelLayout linux_side = linux_layout();
  KernelLayout l;
  l.kernel_name = "mckernel-picodriver";
  l.user = {"user", 0, kUserVaEnd};
  // Requirement 2: alias the Linux direct map exactly.
  l.direct_map = linux_side.direct_map;
  l.direct_map.name = "direct map of all phys (64TB, shared with Linux)";
  // The dynamic range may stay private; device mappings are established on
  // demand in both kernels.
  l.valloc = {"virtual alloc() area", 0xFFFF'C980'0000'0000ull, 0xFFFF'C9FF'FFFF'FFFFull};
  // Requirements 1 & 3: the image moves to the top of the Linux module
  // space (16 MiB reserved there via vmap_area at LWK boot).
  const std::uint64_t image_size = 16ull * 1024 * 1024;
  const VirtAddr image_top = page_floor(linux_side.module_space.end, kPage2M);
  l.image = {"McKernel TEXT/DATA/BSS", image_top - image_size, image_top};
  l.module_space = {"", 0, 0};
  return l;
}

UnificationReport check_unification(const KernelLayout& linux_side, const KernelLayout& lwk) {
  UnificationReport r;

  r.images_disjoint = !linux_side.image.overlaps(lwk.image);
  if (!r.images_disjoint)
    r.violations.push_back("kernel images overlap: " + linux_side.kernel_name + " [" +
                           linux_side.image.name + "] vs " + lwk.kernel_name);

  r.direct_maps_coincide = linux_side.direct_map.start == lwk.direct_map.start &&
                           linux_side.direct_map.end == lwk.direct_map.end;
  if (!r.direct_maps_coincide)
    r.violations.push_back(
        "direct maps differ: dynamically allocated data structures would "
        "dereference to different physical memory across kernels");

  r.lwk_image_mappable = linux_side.module_space.contains_range(lwk.image);
  if (!r.lwk_image_mappable)
    r.violations.push_back(
        "LWK image is outside the Linux module space: Linux cannot reserve "
        "a vmap_area for it, so LWK callback TEXT would be invisible");

  return r;
}

}  // namespace pd::mem
