// RcvArray: the HFI's expected-receive table (paper §2.2.2).
//
// Each entry (TID) describes a physically contiguous receive buffer run.
// User space registers buffers via ioctl(); the driver translates them to
// entries and programs the hardware; incoming expected packets consult the
// TID and place data directly into application memory (no eager copy).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>

#include "src/common/status.hpp"
#include "src/mem/types.hpp"

namespace pd::hw {

/// An aggregate, so it can live in calloc'd storage: all-zero bytes read
/// as a free entry (`valid == false`), the same as `TidEntry{}`.
struct TidEntry {
  mem::PhysAddr pa = 0;
  std::uint64_t len = 0;
  bool valid = false;
  int owner_ctxt = -1;  // receive context that programmed the entry
};

class RcvArray {
 public:
  /// The table comes from calloc, which leaves pages fresh from the kernel
  /// untouched until a TID is first programmed on them.
  explicit RcvArray(std::uint32_t entries);

  /// Program a free entry; returns the TID index.
  Result<std::uint32_t> program(int ctxt, mem::PhysAddr pa, std::uint64_t len);

  /// Unprogram (free) an entry. EINVAL when not owned/valid.
  Status unprogram(int ctxt, std::uint32_t tid);

  /// Release every entry owned by a context (driver does this on close()).
  std::size_t unprogram_all(int ctxt);

  const TidEntry* entry(std::uint32_t tid) const;
  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t in_use() const { return in_use_; }

 private:
  struct Free {
    void operator()(TidEntry* p) const { std::free(p); }
  };

  std::uint32_t capacity_;
  std::unique_ptr<TidEntry[], Free> entries_;
  std::map<int, std::uint32_t> per_ctxt_;  // live entries per context
  std::uint32_t in_use_ = 0;
  std::uint32_t next_hint_ = 0;
};

}  // namespace pd::hw
