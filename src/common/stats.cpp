#include "src/common/stats.hpp"

#include <algorithm>

#include "src/common/rng.hpp"
#include <cmath>
#include <cstdio>
#include <sstream>

namespace pd {

void Samples::add(double x) {
  ++seen_;
  sum_ += x;
  if (seen_ == 1 || x > max_) max_ = x;
  if (cap_ == 0 || xs_.size() < cap_) {
    xs_.push_back(x);
    return;
  }
  // Algorithm R: the i-th sample replaces a uniformly random reservoir slot
  // with probability cap/i, leaving every sample seen so far equally likely
  // to be retained.
  const std::uint64_t j = splitmix64(rng_) % static_cast<std::uint64_t>(seen_);
  if (j < static_cast<std::uint64_t>(cap_)) xs_[static_cast<std::size_t>(j)] = x;
}

void Samples::merge(const Samples& other) {
  if (other.seen_ == 0) return;
  if (seen_ == 0 || other.max_ > max_) max_ = other.max_;
  sum_ += other.sum_;
  for (const double x : other.xs_) {
    ++seen_;
    if (cap_ == 0 || xs_.size() < cap_) {
      xs_.push_back(x);
      continue;
    }
    const std::uint64_t j = splitmix64(rng_) % static_cast<std::uint64_t>(seen_);
    if (j < static_cast<std::uint64_t>(cap_)) xs_[static_cast<std::size_t>(j)] = x;
  }
  // Samples the other side itself evicted still count toward the total.
  seen_ += other.seen_ - other.xs_.size();
}

double Samples::percentile(double p) const {
  if (xs_.empty()) return 0.0;
  std::vector<double> sorted = xs_;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream out;
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << row[c];
      if (c + 1 < row.size())
        out << std::string(widths[c] - row[c].size() + 2, ' ');
    }
    out << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
  return out.str();
}

std::string format_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace pd
