#include "src/hw/rcv_array.hpp"

namespace pd::hw {

Result<std::uint32_t> RcvArray::program(int ctxt, mem::PhysAddr pa, std::uint64_t len) {
  if (len == 0) return Errno::einval;
  if (in_use() == capacity_) return Errno::enospc;
  const TidEntry e{pa, len, true, ctxt};
  if (free_.empty()) {
    table_.push_back(e);
    return static_cast<std::uint32_t>(table_.size() - 1);
  }
  const std::uint32_t tid = free_.back();
  free_.pop_back();
  table_[tid] = e;
  return tid;
}

Status RcvArray::unprogram(int ctxt, std::uint32_t tid) {
  if (tid >= table_.size()) return Errno::einval;
  TidEntry& e = table_[tid];
  if (!e.valid || e.owner_ctxt != ctxt) return Errno::einval;
  e = TidEntry{};
  free_.push_back(tid);
  return Status::success();
}

std::size_t RcvArray::unprogram_all(int ctxt) {
  // A scan, but of the TIDs handed out so far, not of the hardware table.
  std::size_t freed = 0;
  for (std::uint32_t tid = 0; tid < table_.size(); ++tid) {
    TidEntry& e = table_[tid];
    if (e.valid && e.owner_ctxt == ctxt) {
      e = TidEntry{};
      free_.push_back(tid);
      ++freed;
    }
  }
  return freed;
}

const TidEntry* RcvArray::entry(std::uint32_t tid) const {
  if (tid >= table_.size() || !table_[tid].valid) return nullptr;
  return &table_[tid];
}

}  // namespace pd::hw
