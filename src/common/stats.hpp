// Small statistics helpers used by the IKC queueing summaries and the benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pd {

/// Sample container with percentile queries; used for latency distributions
/// in the micro-benches. Unbounded by default (every sample retained, exact
/// percentiles). An explicit capacity turns the container into a uniform
/// reservoir (Vitter's algorithm R, deterministically seeded): count, mean
/// and max stay exact while percentiles are estimated over at most `cap`
/// retained samples — O(cap) memory no matter how long the run, which is
/// what per-job queueing needs at the 4096-job overload ladder.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::size_t cap) : cap_(cap) {}
  void add(double x);
  /// Pool another node's samples (cluster-wide percentile summaries).
  /// Count/mean/max merge exactly; the retained set is appended, or
  /// reservoir-inserted when this side is bounded.
  void merge(const Samples& other);
  std::size_t count() const { return seen_; }
  double mean() const { return seen_ ? sum_ / static_cast<double>(seen_) : 0.0; }
  /// Exact maximum over everything added — survives reservoir eviction.
  double max() const { return seen_ ? max_ : 0.0; }
  /// p in [0,100]; nearest-rank on the sorted retained set.
  double percentile(double p) const;

 private:
  std::vector<double> xs_;  // everything (cap_ == 0) or the reservoir
  std::size_t cap_ = 0;     // 0 = retain every sample
  std::size_t seen_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;  // SplitMix64 state
};

/// Fixed-width text table writer for bench output (paper-style rows).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style %.2f formatting helper used by the bench printers.
std::string format_double(double v, int decimals);

}  // namespace pd
