// In-kernel syscall profiler (the paper's "in-house kernel profiler",
// §4.3) and generic named-cost accounting used for Figures 8 and 9.
// Also carries named event counters (extent-cache hits/misses, slab
// reuse, ring-full fallbacks) so fast-path internals are observable from
// the same place as the syscall profile.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/stats.hpp"
#include "src/common/time.hpp"

namespace pd::os {

class SyscallProfiler {
 public:
  void record(const std::string& name, Dur kernel_time) {
    auto& entry = calls_[name];
    entry.add(to_us(kernel_time));
    total_ += kernel_time;
  }

  Dur total_kernel_time() const { return total_; }
  std::size_t distinct_calls() const { return calls_.size(); }

  struct Row {
    std::string name;
    double total_us = 0;
    std::size_t count = 0;
    double share = 0;  // of total kernel time
  };

  /// Rows sorted by descending total time; `top` = 0 returns all.
  std::vector<Row> rows(std::size_t top = 0) const;

  double share_of(const std::string& name) const;
  double total_us_of(const std::string& name) const;
  std::uint64_t count_of(const std::string& name) const;

  /// --- named event counters ----------------------------------------------
  /// Untimed occurrence counts (cache hits, slab reuses, fallbacks, ...).
  /// The fast path exports one counter per extent-cache lookup outcome
  /// ("pico.extent_cache.hit/miss/evicted_small"), so
  /// sum_counters("pico.extent_cache.") — minus the eviction events, which
  /// ride along with their miss — totals the lookups.
  void bump(const std::string& name, std::uint64_t n = 1) { counters_[name] += n; }
  std::uint64_t counter(const std::string& name) const;
  /// Sum of every counter whose name starts with `prefix`.
  std::uint64_t sum_counters(const std::string& prefix) const;
  const std::map<std::string, std::uint64_t>& counters() const { return counters_; }

  void merge(const SyscallProfiler& other);
  void clear() {
    calls_.clear();
    counters_.clear();
    total_ = 0;
  }

 private:
  std::map<std::string, RunningStats> calls_;
  std::map<std::string, std::uint64_t> counters_;
  Dur total_ = 0;
};

}  // namespace pd::os
