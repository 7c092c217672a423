// RcvArray: the HFI's expected-receive table (paper §2.2.2).
//
// Each entry (TID) describes a physically contiguous receive buffer run.
// User space registers buffers via ioctl(); the driver translates them to
// entries and programs the hardware; incoming expected packets consult the
// TID and place data directly into application memory (no eager copy).
//
// The model stores only the entries it has handed out: `program` reuses the
// most recently freed TID and appends a fresh entry only when none is free,
// so the table grows to the peak number of TIDs live at once, not to the
// hardware's `capacity()`. TID numbers are opaque handles; nothing simulated
// reads their values.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/status.hpp"
#include "src/mem/types.hpp"

namespace pd::hw {

struct TidEntry {
  mem::PhysAddr pa = 0;
  std::uint64_t len = 0;
  bool valid = false;
  int owner_ctxt = -1;  // receive context that programmed the entry
};

class RcvArray {
 public:
  /// `entries` is the hardware table's size: ENOSPC once that many are live.
  explicit RcvArray(std::uint32_t entries) : capacity_(entries) {}

  /// Program a free entry; returns the TID index.
  Result<std::uint32_t> program(int ctxt, mem::PhysAddr pa, std::uint64_t len);

  /// Unprogram (free) an entry. EINVAL when not owned/valid.
  Status unprogram(int ctxt, std::uint32_t tid);

  /// Release every entry owned by a context (driver does this on close()).
  std::size_t unprogram_all(int ctxt);

  const TidEntry* entry(std::uint32_t tid) const;
  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t in_use() const { return static_cast<std::uint32_t>(table_.size() - free_.size()); }

 private:
  std::uint32_t capacity_;
  std::vector<TidEntry> table_;      // every TID handed out so far, live or freed
  std::vector<std::uint32_t> free_;  // freed TIDs, the most recent last
};

}  // namespace pd::hw
