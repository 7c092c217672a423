// Minimal leveled logger.
//
// Simulation components log through a process-global sink. The threshold
// is a compile-time constant, `warn`: a statement below it compiles away,
// and there is no process-wide level to set. Formatting is plain
// iostream-into-ostringstream — log calls are off the measured paths (the
// simulator measures *simulated* time, not wall time), so convenience wins.
#pragma once

#include <sstream>
#include <string>

namespace pd {

enum class LogLevel : int { trace = 0, debug = 1, info = 2, warn = 3, error = 4, off = 5 };

/// Statements below this level are dropped.
constexpr LogLevel kLogThreshold = LogLevel::warn;

namespace log_detail {
void emit(LogLevel level, const std::string& msg);
}  // namespace log_detail

/// Stream-style log statement: `PD_LOG(warn) << "lost " << n << " chunks";`
/// The stream body is only evaluated when the level is enabled.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_detail::emit(level_, out_.str()); }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    out_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream out_;
};

}  // namespace pd

#define PD_LOG(severity)                                           \
  if constexpr (::pd::LogLevel::severity < ::pd::kLogThreshold) {} else \
    ::pd::LogLine(::pd::LogLevel::severity)
