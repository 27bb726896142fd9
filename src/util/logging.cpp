#include "util/logging.hpp"

#include <cstdio>
#include <utility>

namespace agentloc::util {

std::string_view to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

Logger::Logger() = default;

void Logger::set_sink(Sink sink) { sink_ = std::move(sink); }

void Logger::log(LogLevel level, std::string_view component,
                 std::string_view text) {
  if (!enabled(level)) return;
  std::string line;
  line.reserve(component.size() + text.size() + 16);
  line += to_string(level);
  line += " ";
  line += component;
  line += ": ";
  line += text;
  if (sink_) {
    sink_(level, line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace agentloc::util
