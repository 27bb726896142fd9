#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace agentloc::util {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4 };

std::string_view to_string(LogLevel level) noexcept;

/// Minimal structured logger: a process-wide level threshold and a
/// redirectable sink (tests use it to assert on emitted diagnostics).
///
/// Threading rule: `set_level` and `set_sink` are setup calls, made before
/// any thread that may log starts (and after they all joined). `log` may
/// run concurrently — experiment replications on `util::parallel_for` log
/// from their worker threads — because it only reads the level and the
/// sink. The sink itself must tolerate concurrent calls; the default
/// writes each line with one `fprintf` to stderr.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, std::string_view)>;

  static Logger& instance();

  void set_level(LogLevel level) noexcept { level_ = level; }
  LogLevel level() const noexcept { return level_; }
  bool enabled(LogLevel level) const noexcept { return level >= level_; }

  /// Replace the sink; pass nullptr to restore the default (stderr).
  void set_sink(Sink sink);

  void log(LogLevel level, std::string_view component, std::string_view text);

 private:
  Logger();

  LogLevel level_ = LogLevel::kWarn;
  Sink sink_;
};

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { Logger::instance().log(level_, component_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace agentloc::util

/// Streaming log statement: `AGENTLOC_LOG(kInfo, "hagent") << "split " << id;`
/// The right-hand side is only evaluated when the level is enabled.
#define AGENTLOC_LOG(level, component)                                       \
  if (!::agentloc::util::Logger::instance().enabled(                        \
          ::agentloc::util::LogLevel::level)) {                             \
  } else                                                                     \
    ::agentloc::util::detail::LogLine(::agentloc::util::LogLevel::level,    \
                                      component)
