// Four-level radix page table (x86_64-shaped: 48-bit VA, 9 bits per level,
// 4 KiB leaves at level 1, 2 MiB leaves at level 2 and 1 GiB leaves at
// level 3 — the latter is what makes mapping a 64 TiB physical direct map
// practical).
//
// Both kernels' address spaces are backed by this structure. The PicoDriver
// fast path (paper §3.4) walks it directly to discover physically
// contiguous runs — including large pages — instead of collecting `struct
// page` references the way the Linux driver's get_user_pages() path does.
//
// Tables have the hardware's shape: 512 eight-byte entries, 4 KiB per
// table. Bit 0 of an entry is "present", bit 1 "leaf", bits 2-4 hold the
// `Prot` bits; a leaf keeps its 4 KiB-aligned physical address in the
// remaining bits, a table entry its child pointer. A table is freed as soon
// as its last entry goes (Linux's free_pgtables() at munmap), so a present
// table entry always leads to at least one leaf; the root is never freed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "src/common/status.hpp"
#include "src/mem/types.hpp"

namespace pd::mem {

/// Result of translating one virtual address.
struct Translation {
  PhysAddr pa = 0;           // physical address of the byte at `va`
  std::uint64_t page = 0;    // backing page size (4K / 2M / 1G)
  std::uint32_t prot = 0;    // Prot bits
};

class PageTable {
 public:
  PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;
  PageTable(PageTable&&) = default;
  PageTable& operator=(PageTable&&) = default;

  /// Map one page of `page_size` (kPage4K / kPage2M / kPage1G). Both
  /// addresses must be aligned to `page_size`, and `prot` may hold only
  /// kProtRead | kProtWrite | kProtExec (EINVAL otherwise). EEXIST if
  /// already mapped.
  Status map(VirtAddr va, PhysAddr pa, std::uint64_t page_size, std::uint32_t prot);

  /// Map a run of pages covering [va, va+len).
  Status map_range(VirtAddr va, PhysAddr pa, std::uint64_t len, std::uint64_t page_size,
                   std::uint32_t prot);

  /// Remove the page mapping containing `va` (any size). ENOENT if absent.
  Status unmap(VirtAddr va);

  /// Remove all mappings intersecting [va, va+len).
  void unmap_range(VirtAddr va, std::uint64_t len);

  /// Translate a virtual address.
  std::optional<Translation> translate(VirtAddr va) const;

  std::uint64_t mapped_pages() const { return mapped_pages_; }

  /// Tables currently allocated, the root included.
  std::uint64_t table_count() const { return tables_; }

 private:
  struct Table {
    std::array<std::uint64_t, 512> entries{};
    std::uint32_t live = 0;  // present entries

    Table() = default;
    ~Table();  // frees the child tables still linked below
    Table(const Table&) = delete;
    Table& operator=(const Table&) = delete;
  };

  static int level_shift(int level) { return 12 + 9 * level; }  // level 0 = PTE
  static std::size_t index_at(VirtAddr va, int level) {
    return (va >> level_shift(level)) & 0x1FF;
  }
  static Table* child_of(std::uint64_t entry);
  void clear_range(Table& table, int level, VirtAddr start, VirtAddr end);

  std::unique_ptr<Table> root_;  // level 3 (PML4)
  std::uint64_t mapped_pages_ = 0;
  std::uint64_t tables_ = 1;
};

}  // namespace pd::mem
