// In-kernel syscall profiler (the paper's "in-house kernel profiler",
// §4.3) and generic named-cost accounting used for Figures 8 and 9.
// Also carries named event counters (extent-cache hits/misses, slab
// reuse, ring-full fallbacks) so fast-path internals are observable from
// the same place as the syscall profile. Names are `std::string_view`s: a
// key string is allocated only on a name's first record or bump.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.hpp"

namespace pd::os {

class SyscallProfiler {
 public:
  void record(std::string_view name, Dur kernel_time) {
    Calls& c = slot(calls_, name);
    ++c.count;
    c.total_us += to_us(kernel_time);
    total_ += kernel_time;
  }

  Dur total_kernel_time() const { return total_; }

  struct Row {
    std::string name;
    double total_us = 0;
    std::size_t count = 0;
    double share = 0;  // of total kernel time
  };

  /// Rows sorted by descending total time; `top` = 0 returns all.
  std::vector<Row> rows(std::size_t top = 0) const;

  double share_of(std::string_view name) const;
  double total_us_of(std::string_view name) const;
  std::uint64_t count_of(std::string_view name) const;

  /// --- named event counters ----------------------------------------------
  /// Untimed occurrence counts (cache hits, slab reuses, fallbacks, ...).
  /// The fast path exports one counter per extent-cache lookup outcome
  /// ("pico.extent_cache.hit/miss/evicted_small"), so
  /// sum_counters("pico.extent_cache.") — minus the eviction events, which
  /// ride along with their miss — totals the lookups.
  void bump(std::string_view name, std::uint64_t n = 1) { slot(counters_, name) += n; }
  std::uint64_t counter(std::string_view name) const;
  /// Sum of every counter whose name starts with `prefix`.
  std::uint64_t sum_counters(std::string_view prefix) const;

  void merge(const SyscallProfiler& other);
  void clear() {
    calls_.clear();
    counters_.clear();
    total_ = 0;
  }

 private:
  struct Calls {
    std::size_t count = 0;
    double total_us = 0;
  };

  /// `map[name]`, allocating the key only when `name` is new.
  template <typename V>
  static V& slot(std::map<std::string, V, std::less<>>& map, std::string_view name) {
    auto it = map.lower_bound(name);
    if (it == map.end() || it->first != name) it = map.emplace_hint(it, name, V{});
    return it->second;
  }

  std::map<std::string, Calls, std::less<>> calls_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  Dur total_ = 0;
};

}  // namespace pd::os
