#include "src/common/log.hpp"

#include <cstdio>
#include <mutex>

namespace pd::log_detail {

void emit(LogLevel level, const std::string& msg) {
  static std::mutex mu;
  const char* tag = "?";
  switch (level) {
    case LogLevel::trace: tag = "T"; break;
    case LogLevel::debug: tag = "D"; break;
    case LogLevel::info: tag = "I"; break;
    case LogLevel::warn: tag = "W"; break;
    case LogLevel::error: tag = "E"; break;
    case LogLevel::off: return;
  }
  std::lock_guard<std::mutex> lock(mu);
  std::fprintf(stderr, "[%s] %s\n", tag, msg.c_str());
}

}  // namespace pd::log_detail
