// MPI-call profiling à la Intel MPI's I_MPI_STATS (used for Table 1).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/common/time.hpp"

namespace pd::mpirt {

/// Per-rank accumulator of time spent inside each MPI call.
class MpiStats {
 public:
  void record(const std::string& call, Dur elapsed) {
    auto& e = calls_[call];
    e.total += elapsed;
    ++e.count;
  }

  /// Tag which algorithm a collective ran ("Allreduce" → "ring", ...), à la
  /// I_MPI_ADJUST: the noise sweep and the crossover property tests both
  /// need to know what actually executed, not what the knobs suggest.
  void record_algo(const std::string& call, const std::string& algo) {
    ++algos_[call + "/" + algo];
  }
  const std::map<std::string, std::uint64_t>& algos() const { return algos_; }

  void set_runtime(Dur runtime) { runtime_ = runtime; }
  Dur runtime() const { return runtime_; }

  /// Solve-region bracket (the figure-of-merit window: excludes Init/
  /// Finalize, as the mini-apps' own FOMs do).
  void set_solve(Dur solve) { solve_ = solve; }
  Dur solve() const { return solve_ > 0 ? solve_ : runtime_; }

  struct Entry {
    Dur total = 0;
    std::uint64_t count = 0;
  };
  const std::map<std::string, Entry>& calls() const { return calls_; }

 private:
  std::map<std::string, Entry> calls_;
  std::map<std::string, std::uint64_t> algos_;
  Dur runtime_ = 0;
  Dur solve_ = 0;
};

/// Cluster-wide aggregation: Time summed over ranks (the paper's Table 1
/// convention), %MPI of total MPI time, %Rt of total runtime.
struct MpiStatsRow {
  std::string call;        // e.g. "Wait" (MPI_ prefix implied)
  double time_ms = 0;      // cumulative over all ranks
  double pct_mpi = 0;
  double pct_runtime = 0;
  std::uint64_t count = 0;
};

class MpiStatsTable {
 public:
  void add_rank(const MpiStats& stats);

  /// Rows sorted by descending cumulative time; `top` = 0 for all.
  std::vector<MpiStatsRow> rows(std::size_t top = 0) const;
  const MpiStatsRow* row(const std::string& call) const;

  double total_mpi_ms() const { return to_ms(total_mpi_); }
  double total_runtime_ms() const { return to_ms(total_runtime_); }

  /// Cluster-wide "call/algo" → invocation counts (summed over ranks).
  const std::map<std::string, std::uint64_t>& algo_counts() const {
    return algo_counts_;
  }
  std::uint64_t algo_count(const std::string& call, const std::string& algo) const {
    auto it = algo_counts_.find(call + "/" + algo);
    return it == algo_counts_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, MpiStats::Entry> merged_;
  std::map<std::string, std::uint64_t> algo_counts_;
  Dur total_mpi_ = 0;
  Dur total_runtime_ = 0;
  mutable std::vector<MpiStatsRow> cache_;
};

}  // namespace pd::mpirt
