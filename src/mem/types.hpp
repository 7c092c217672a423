// Shared memory-subsystem vocabulary types.
#pragma once

#include <cstdint>

namespace pd::mem {

using PhysAddr = std::uint64_t;
using VirtAddr = std::uint64_t;

constexpr std::uint64_t kPage4K = 4096;
constexpr std::uint64_t kPage2M = 2ull * 1024 * 1024;
constexpr std::uint64_t kPage1G = 1024ull * 1024 * 1024;

constexpr std::uint64_t page_floor(std::uint64_t addr, std::uint64_t page) {
  return addr & ~(page - 1);
}
constexpr std::uint64_t page_ceil(std::uint64_t addr, std::uint64_t page) {
  return (addr + page - 1) & ~(page - 1);
}
constexpr bool page_aligned(std::uint64_t addr, std::uint64_t page) {
  return (addr & (page - 1)) == 0;
}

/// End of the user address range (x86_64's TASK_SIZE_MAX: 47 bits less a
/// guard page).
constexpr VirtAddr kUserVaEnd = 0x0000'7FFF'FFFF'F000ull;

/// Linux's access_ok(): [va, va+len) does not wrap and ends inside the user
/// address range. Check a user range with this before sizing anything from it.
constexpr bool user_range_ok(VirtAddr va, std::uint64_t len) {
  return len <= kUserVaEnd && va <= kUserVaEnd - len;
}

/// Memory technology of a NUMA domain (KNL: MCDRAM vs DDR4).
enum class MemKind : std::uint8_t { mcdram, ddr };

/// Page protection bits (subset).
enum Prot : std::uint32_t {
  kProtRead = 1u << 0,
  kProtWrite = 1u << 1,
  kProtExec = 1u << 2,
};

}  // namespace pd::mem
