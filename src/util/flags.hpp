#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace agentloc::util {

/// Tiny command-line flag parser shared by the bench and example binaries.
///
/// Accepts `--name=value`, `--name value`, and bare boolean `--name`.
/// Anything not starting with `--` is collected as a positional argument.
/// Unknown flags are tolerated and retrievable (so wrapper scripts can pass
/// experiment-specific knobs through), but each binary can call
/// `fail_on_unknown` after declaring its flags to get strict behaviour.
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// Construct from a pre-split vector (used by tests).
  explicit Flags(const std::vector<std::string>& args);

  bool has(std::string_view name) const;

  std::optional<std::string> get(std::string_view name) const;

  /// The typed getters read the whole value: `--n=8x` is an error, not 8.
  /// A malformed value throws `std::invalid_argument` naming the flag.
  std::string get_string(std::string_view name, std::string fallback) const;
  std::int64_t get_int(std::string_view name, std::int64_t fallback) const;
  double get_double(std::string_view name, double fallback) const;
  bool get_bool(std::string_view name, bool fallback) const;

  /// `get_int`, refused (`std::invalid_argument` naming the flag) unless
  /// `min <= value <= max`. For counts that must be positive or bounded.
  std::int64_t get_int_in(
      std::string_view name, std::int64_t fallback, std::int64_t min,
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;

  /// Comma-separated lists, e.g. `--agents=100,200,300`. Empty items are
  /// skipped; every other item must be whole, as in the scalar getters.
  std::vector<std::int64_t> get_int_list(
      std::string_view name, std::vector<std::int64_t> fallback) const;
  std::vector<double> get_double_list(std::string_view name,
                                      std::vector<double> fallback) const;
  std::vector<std::string> get_string_list(
      std::string_view name, std::vector<std::string> fallback) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Record that `name` is a valid flag (used by `fail_on_unknown`).
  void declare(std::string_view name);

  /// Throws `std::invalid_argument` naming the first parsed flag that was
  /// never declared. Call after all `declare`/`get_*` calls.
  void fail_on_unknown() const;

 private:
  void parse(const std::vector<std::string>& args);

  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
  mutable std::vector<std::string> declared_;
};

}  // namespace agentloc::util
