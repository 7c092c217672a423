#include "src/mem/page_table.hpp"

#include <cassert>

namespace pd::mem {

namespace {
constexpr std::uint64_t kPresent = 1u << 0;
constexpr std::uint64_t kLeaf = 1u << 1;
constexpr int kProtShift = 2;
constexpr std::uint32_t kProtMask = kProtRead | kProtWrite | kProtExec;
constexpr std::uint64_t kLeafFlags = kPage4K - 1;  // below a leaf's 4 KiB-aligned address
constexpr VirtAddr kVaMask = (VirtAddr{1} << 48) - 1;
}  // namespace

PageTable::Table::~Table() {
  if (live == 0) return;
  for (const std::uint64_t e : entries)
    if ((e & (kPresent | kLeaf)) == kPresent) delete child_of(e);
}

PageTable::PageTable() : root_(std::make_unique<Table>()) {}

PageTable::Table* PageTable::child_of(std::uint64_t entry) {
  static_assert(alignof(Table) > (kPresent | kLeaf), "flag bits must sit below the pointer");
  return reinterpret_cast<Table*>(static_cast<std::uintptr_t>(entry & ~(kPresent | kLeaf)));
}

Status PageTable::map(VirtAddr va, PhysAddr pa, std::uint64_t page_size, std::uint32_t prot) {
  if (page_size != kPage4K && page_size != kPage2M && page_size != kPage1G)
    return Errno::einval;
  if (!page_aligned(va, page_size) || !page_aligned(pa, page_size)) return Errno::einval;
  if ((prot & ~kProtMask) != 0) return Errno::einval;  // no room in the entry

  const int leaf_level = page_size == kPage4K ? 0 : (page_size == kPage2M ? 1 : 2);
  Table* table = root_.get();
  for (int level = 3; level > leaf_level; --level) {
    std::uint64_t& e = table->entries[index_at(va, level)];
    if (e & kLeaf) return Errno::eexist;  // covered by a larger page
    if (!(e & kPresent)) {
      e = reinterpret_cast<std::uintptr_t>(new Table) | kPresent;
      ++table->live;
      ++tables_;
    }
    table = child_of(e);
  }
  // A present entry is a leaf, or a table with a leaf somewhere below it:
  // empty tables are freed as they empty, so neither can be mapped over.
  std::uint64_t& e = table->entries[index_at(va, leaf_level)];
  if (e & kPresent) return Errno::eexist;
  e = pa | (std::uint64_t{prot} << kProtShift) | kLeaf | kPresent;
  ++table->live;
  ++mapped_pages_;
  return Status::success();
}

Status PageTable::map_range(VirtAddr va, PhysAddr pa, std::uint64_t len, std::uint64_t page_size,
                            std::uint32_t prot) {
  if (!page_aligned(len, page_size)) return Errno::einval;
  for (std::uint64_t off = 0; off < len; off += page_size) {
    if (Status s = map(va + off, pa + off, page_size, prot); !s.ok()) {
      // Roll back what was mapped so a failed range leaves no residue.
      unmap_range(va, off);
      return s;
    }
  }
  return Status::success();
}

Status PageTable::unmap(VirtAddr va) {
  if (!translate(va)) return Errno::enoent;
  // The 4 KiB page at `va` meets exactly the leaf that maps it, whatever
  // its size. The walk indexes 48 bits, so the page is taken there too.
  const VirtAddr page = page_floor(va, kPage4K) & kVaMask;
  clear_range(*root_, 3, page, page + kPage4K);
  return Status::success();
}

void PageTable::unmap_range(VirtAddr va, std::uint64_t len) {
  const VirtAddr start = page_floor(va, kPage4K);
  const VirtAddr end = page_ceil(va + len, kPage4K);
  if (start < end) clear_range(*root_, 3, start, end);
}

void PageTable::clear_range(Table& table, int level, VirtAddr start, VirtAddr end) {
  // Each slot meeting [start, end) is visited once: a leaf there intersects
  // the range and goes whole, a table is cleared over the intersection and
  // freed if that emptied it.
  const std::uint64_t span = std::uint64_t{1} << level_shift(level);
  for (VirtAddr cur = start; cur < end;) {
    const VirtAddr next = page_floor(cur, span) + span;  // 0 past the top of the space
    const VirtAddr stop = next != 0 && next < end ? next : end;
    std::uint64_t& e = table.entries[index_at(cur, level)];
    if (e & kLeaf) {
      e = 0;
      --table.live;
      --mapped_pages_;
    } else if (e & kPresent) {
      Table* child = child_of(e);
      clear_range(*child, level - 1, cur, stop);
      if (child->live == 0) {
        delete child;
        e = 0;
        --table.live;
        --tables_;
      }
    }
    cur = stop;
  }
}

std::optional<Translation> PageTable::translate(VirtAddr va) const {
  const Table* table = root_.get();
  for (int level = 3; level >= 0; --level) {
    const std::uint64_t e = table->entries[index_at(va, level)];
    if (!(e & kPresent)) return std::nullopt;
    if (e & kLeaf) {
      assert(level <= 2);
      const std::uint64_t page = std::uint64_t{1} << level_shift(level);
      Translation t;
      t.page = page;
      t.pa = (e & ~kLeafFlags) + (va & (page - 1));
      t.prot = static_cast<std::uint32_t>(e >> kProtShift) & kProtMask;
      return t;
    }
    table = child_of(e);
  }
  return std::nullopt;
}

}  // namespace pd::mem
