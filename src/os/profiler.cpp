#include "src/os/profiler.hpp"

#include <algorithm>

namespace pd::os {

std::vector<SyscallProfiler::Row> SyscallProfiler::rows(std::size_t top) const {
  std::vector<Row> out;
  const double total_us = to_us(total_);
  for (const auto& [name, c] : calls_) {
    Row row;
    row.name = name;
    row.total_us = c.total_us;
    row.count = c.count;
    row.share = total_us > 0 ? c.total_us / total_us : 0.0;
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(),
            [](const Row& a, const Row& b) { return a.total_us > b.total_us; });
  if (top != 0 && out.size() > top) out.resize(top);
  return out;
}

double SyscallProfiler::share_of(std::string_view name) const {
  auto it = calls_.find(name);
  if (it == calls_.end() || total_ == 0) return 0.0;
  return it->second.total_us / to_us(total_);
}

double SyscallProfiler::total_us_of(std::string_view name) const {
  auto it = calls_.find(name);
  return it == calls_.end() ? 0.0 : it->second.total_us;
}

std::uint64_t SyscallProfiler::count_of(std::string_view name) const {
  auto it = calls_.find(name);
  return it == calls_.end() ? 0 : it->second.count;
}

std::uint64_t SyscallProfiler::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t SyscallProfiler::sum_counters(std::string_view prefix) const {
  std::uint64_t total = 0;
  for (auto it = counters_.lower_bound(prefix);
       it != counters_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it)
    total += it->second;
  return total;
}

void SyscallProfiler::merge(const SyscallProfiler& other) {
  for (const auto& [name, c] : other.calls_) {
    Calls& mine = slot(calls_, name);
    mine.count += c.count;
    mine.total_us += c.total_us;
  }
  for (const auto& [name, n] : other.counters_) slot(counters_, name) += n;
  total_ += other.total_;
}

}  // namespace pd::os
