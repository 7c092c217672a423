#include "src/hw/rcv_array.hpp"

#include <new>
#include <span>

namespace pd::hw {

RcvArray::RcvArray(std::uint32_t entries)
    : capacity_(entries),
      entries_(static_cast<TidEntry*>(std::calloc(entries, sizeof(TidEntry)))) {
  if (entries_ == nullptr && entries != 0) throw std::bad_alloc();
}

Result<std::uint32_t> RcvArray::program(int ctxt, mem::PhysAddr pa, std::uint64_t len) {
  if (len == 0) return Errno::einval;
  const std::uint32_t n = capacity();
  if (in_use_ == n) return Errno::enospc;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t tid = (next_hint_ + i) % n;
    if (!entries_[tid].valid) {
      entries_[tid] = TidEntry{pa, len, true, ctxt};
      next_hint_ = (tid + 1) % n;
      ++in_use_;
      ++per_ctxt_[ctxt];
      return tid;
    }
  }
  return Errno::enospc;
}

Status RcvArray::unprogram(int ctxt, std::uint32_t tid) {
  if (tid >= capacity()) return Errno::einval;
  TidEntry& e = entries_[tid];
  if (!e.valid || e.owner_ctxt != ctxt) return Errno::einval;
  e = TidEntry{};
  --in_use_;
  --per_ctxt_[ctxt];
  return Status::success();
}

std::size_t RcvArray::unprogram_all(int ctxt) {
  // Skip the scan when the context holds nothing (the common case at
  // close time, after PSM freed everything).
  auto it = per_ctxt_.find(ctxt);
  if (it == per_ctxt_.end() || it->second == 0) return 0;
  std::size_t freed = 0;
  for (TidEntry& e : std::span(entries_.get(), capacity_)) {
    if (e.valid && e.owner_ctxt == ctxt) {
      e = TidEntry{};
      --in_use_;
      ++freed;
    }
  }
  it->second = 0;
  return freed;
}

const TidEntry* RcvArray::entry(std::uint32_t tid) const {
  if (tid >= capacity() || !entries_[tid].valid) return nullptr;
  return &entries_[tid];
}

}  // namespace pd::hw
